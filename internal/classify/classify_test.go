package classify

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

func TestNaiveBayesBasics(t *testing.T) {
	nb := NewNaiveBayes()
	nb.Train([]string{"pizza", "pasta", "menu"}, "restaurants")
	nb.Train([]string{"burger", "fries", "menu"}, "restaurants")
	nb.Train([]string{"concert", "tickets", "stage"}, "events")
	nb.Train([]string{"parade", "festival", "music"}, "events")

	label, probs := nb.Predict([]string{"pizza", "menu"})
	if label != "restaurants" {
		t.Errorf("label = %q (probs %v)", label, probs)
	}
	label, _ = nb.Predict([]string{"concert", "parade"})
	if label != "events" {
		t.Errorf("label = %q", label)
	}
	// Distribution sums to 1.
	_, probs = nb.Predict([]string{"menu"})
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum = %f", sum)
	}
}

func TestNaiveBayesUntrainedAndUnknown(t *testing.T) {
	nb := NewNaiveBayes()
	if label, probs := nb.Predict([]string{"x"}); label != "" || probs != nil {
		t.Error("untrained should return empty")
	}
	nb.Train([]string{"a"}, "c1")
	nb.Train([]string{"b", "b", "b"}, "c2")
	// All-unknown tokens fall back to the class prior (c2 ties c1 on docs;
	// both priors equal, so any class is acceptable — just no panic and a
	// valid distribution).
	label, probs := nb.Predict([]string{"zzz", "qqq"})
	if label == "" || len(probs) != 2 {
		t.Errorf("label=%q probs=%v", label, probs)
	}
}

func TestNaiveBayesPriors(t *testing.T) {
	nb := NewNaiveBayes()
	for i := 0; i < 9; i++ {
		nb.Train([]string{"common"}, "big")
	}
	nb.Train([]string{"common"}, "small")
	label, probs := nb.Predict([]string{"common"})
	if label != "big" || probs["big"] < 0.8 {
		t.Errorf("prior not respected: %q %v", label, probs)
	}
}

// portalPages returns the classified pages and link graph for a city portal.
func portalPages(w *webgen.World, city string) ([]*webgen.Page, *webgraph.Graph) {
	host := webgen.PortalHost(city)
	site, _ := w.SiteByHost(host)
	pages := make([]*webgraph.Page, len(site.Pages))
	for i, p := range site.Pages {
		pages[i] = webgraph.NewPage(p.URL, p.HTML)
	}
	return site.Pages, webgraph.BuildGraph(pages)
}

func worldForClassify() *webgen.World {
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 80
	cfg.ReviewArticles = 10
	cfg.TVArticles = 4
	return webgen.Generate(cfg)
}

// trainGlobal trains the "global classifier" the way the paper assumes one
// is built: a small labeled sample (a handful of pages per category) from a
// couple of sites, not exhaustive per-site labeling.
func trainGlobal(w *webgen.World) *NaiveBayes {
	nb := NewNaiveBayes()
	perCat := make(map[string]int)
	for _, city := range w.Cities()[:2] {
		pages, _ := portalPages(w, city)
		for _, p := range pages {
			if perCat[p.Truth.Category] >= 6 {
				continue
			}
			perCat[p.Truth.Category]++
			nb.Train(Features(webgraph.NewPage(p.URL, p.HTML)), p.Truth.Category)
		}
	}
	return nb
}

func accuracyOn(w *webgen.World, nb *NaiveBayes, city string, refine bool) (float64, int) {
	pages, graph := portalPages(w, city)
	var labeled []PageLabel
	truth := make(map[string]string)
	for _, p := range pages {
		label, probs := nb.Predict(Features(webgraph.NewPage(p.URL, p.HTML)))
		labeled = append(labeled, PageLabel{URL: p.URL, Label: label, Probs: probs})
		truth[p.URL] = p.Truth.Category
	}
	var final map[string]PageLabel
	if refine {
		final = Refine(labeled, graph, DefaultRefineOptions())
	} else {
		final = make(map[string]PageLabel)
		for _, pl := range labeled {
			final[pl.URL] = pl
		}
	}
	correct, total := 0, 0
	for url, want := range truth {
		total++
		if final[url].Label == want {
			correct++
		}
	}
	return float64(correct) / float64(total), total
}

func TestRelationalRefinementImproves(t *testing.T) {
	w := worldForClassify()
	nb := trainGlobal(w)
	var globalSum, refinedSum float64
	n := 0
	for _, city := range w.Cities()[2:] {
		g, total := accuracyOn(w, nb, city, false)
		r, _ := accuracyOn(w, nb, city, true)
		if total == 0 {
			continue
		}
		globalSum += g
		refinedSum += r
		n++
	}
	if n == 0 {
		t.Fatal("no held-out cities")
	}
	global, refined := globalSum/float64(n), refinedSum/float64(n)
	t.Logf("global=%.3f refined=%.3f over %d held-out portals", global, refined, n)
	if refined < global {
		t.Errorf("refinement hurt: %.3f -> %.3f", global, refined)
	}
	if refined < 0.8 {
		t.Errorf("refined accuracy %.3f too low", refined)
	}
}

func TestRefineFixesDirectoryOutlier(t *testing.T) {
	// Hand-built: four pages in /calendar/, three confidently "events", one
	// misclassified as "restaurants". Refinement must flip the outlier.
	mk := func(url string, pEvents float64) PageLabel {
		label := "events"
		if pEvents < 0.5 {
			label = "restaurants"
		}
		return PageLabel{URL: url, Label: label,
			Probs: map[string]float64{"events": pEvents, "restaurants": 1 - pEvents}}
	}
	pages := []PageLabel{
		mk("c.example/calendar/a", 0.9),
		mk("c.example/calendar/b", 0.85),
		mk("c.example/calendar/c", 0.8),
		mk("c.example/calendar/d", 0.3), // the outlier
	}
	out := Refine(pages, nil, DefaultRefineOptions())
	if got := out["c.example/calendar/d"].Label; got != "events" {
		t.Errorf("outlier label = %q, want events (probs %v)", got, out["c.example/calendar/d"].Probs)
	}
	// Confident pages stay put.
	if got := out["c.example/calendar/a"].Label; got != "events" {
		t.Errorf("confident page flipped to %q", got)
	}
}

// TestRefineSiteGraphMatchesCorpusGraph: Refine keeps only in-site
// neighbours, and BuildGraph's lists are sorted and deduplicated, so a graph
// built from one site's pages gives bit-identical refined posteriors to one
// built over the whole corpus.
func TestRefineSiteGraphMatchesCorpusGraph(t *testing.T) {
	w := worldForClassify()
	nb := trainGlobal(w)
	var all []*webgraph.Page
	for _, wp := range w.Pages() {
		all = append(all, webgraph.NewPage(wp.URL, wp.HTML))
	}
	corpus := webgraph.BuildGraph(all)
	for _, city := range w.Cities() {
		site, _ := portalPages(w, city)
		var pages []*webgraph.Page
		var labeled []PageLabel
		for _, p := range site {
			pg := webgraph.NewPage(p.URL, p.HTML)
			pages = append(pages, pg)
			label, probs := nb.Predict(Features(pg))
			labeled = append(labeled, PageLabel{URL: p.URL, Label: label, Probs: probs})
		}
		got := Refine(labeled, webgraph.BuildGraph(pages), DefaultRefineOptions())
		want := Refine(labeled, corpus, DefaultRefineOptions())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: site-local refinement differs from corpus-graph refinement", city)
		}
	}
}

func TestRefineUsesLinks(t *testing.T) {
	// Two root-level pages (no shared directory) linked to a cluster of
	// confident "events" pages; the uncertain one should be pulled over.
	pages := []PageLabel{
		{URL: "c.example/hub", Label: "restaurants",
			Probs: map[string]float64{"events": 0.45, "restaurants": 0.55}},
		{URL: "c.example/calendar/a", Label: "events",
			Probs: map[string]float64{"events": 0.95, "restaurants": 0.05}},
		{URL: "c.example/calendar/b", Label: "events",
			Probs: map[string]float64{"events": 0.95, "restaurants": 0.05}},
	}
	g := &webgraph.Graph{
		Out: map[string][]string{
			"c.example/hub": {"c.example/calendar/a", "c.example/calendar/b"},
		},
		In: map[string][]string{},
	}
	opts := RefineOptions{SelfWeight: 0.3, DirWeight: 0.2, LinkWeight: 0.5, Rounds: 3}
	out := Refine(pages, g, opts)
	if got := out["c.example/hub"].Label; got != "events" {
		t.Errorf("hub label = %q, want events (probs %v)", got, out["c.example/hub"].Probs)
	}
}

func TestRefineEmptyAndDegenerate(t *testing.T) {
	if out := Refine(nil, nil, DefaultRefineOptions()); len(out) != 0 {
		t.Error("empty input should give empty output")
	}
	// Zero weights fall back to defaults rather than dividing by zero.
	pages := []PageLabel{{URL: "x/y", Label: "a", Probs: map[string]float64{"a": 1}}}
	out := Refine(pages, nil, RefineOptions{})
	if out["x/y"].Label != "a" {
		t.Errorf("degenerate refine = %+v", out)
	}
}

func TestFeaturesSkipBoilerplate(t *testing.T) {
	html := `<html><body><div class="topnav"><ul><li>navigationword</li></ul></div>
<p>contentword restaurants</p><div class="footer">footerword</div></body></html>`
	feats := Features(webgraph.NewPage("x/y", html))
	joined := " " + strings.Join(feats, " ") + " "
	if strings.Contains(joined, "navigationword") || strings.Contains(joined, "footerword") {
		t.Errorf("boilerplate leaked: %v", feats)
	}
	if !strings.Contains(joined, " contentword ") {
		t.Errorf("content missing: %v", feats)
	}
	if !strings.Contains(joined, " restaurant ") {
		t.Errorf("stemming missing: %v", feats)
	}
}
