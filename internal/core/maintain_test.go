package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/extract"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// flakyFetcher fails deterministically for a fraction of URLs, and can mark
// URLs permanently gone.
type flakyFetcher struct {
	w    *webgen.World
	gone map[string]bool
	// failEvery fails every Nth distinct fetch during Build (0 = off).
	failEvery int

	mu    sync.Mutex
	count int
}

// Fetch must be safe for concurrent use: the crawler fans fetches out
// across workers.
func (f *flakyFetcher) Fetch(url string) (string, error) {
	if f.gone[url] {
		return "", fmt.Errorf("gone: %s", url)
	}
	f.mu.Lock()
	f.count++
	n := f.count
	f.mu.Unlock()
	if f.failEvery > 0 && n%f.failEvery == 0 {
		return "", fmt.Errorf("transient failure: %s", url)
	}
	return f.w.Fetch(url)
}

func TestBuildSurvivesFlakyFetcher(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ff := &flakyFetcher{w: w, failEvery: 10}
	b := &Builder{Fetcher: ff, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, stats, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if stats.FetchFailures == 0 {
		t.Fatal("flaky fetcher produced no failures; test is vacuous")
	}
	if stats.PagesFetched == 0 || woc.Records.CountByConcept("restaurant") == 0 {
		t.Errorf("build collapsed under 10%% fetch failures: %+v", stats)
	}
	// The build should still have most of the web.
	if float64(stats.PagesFetched) < 0.8*float64(len(w.Pages())) {
		t.Errorf("fetched only %d of %d pages", stats.PagesFetched, len(w.Pages()))
	}
}

func TestRefreshHandlesGonePages(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ff := &flakyFetcher{w: w, gone: map[string]bool{}}
	b := &Builder{Fetcher: ff, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}

	// Close down a restaurant: its homepage pages vanish.
	var target *webgen.Restaurant
	for _, r := range w.Restaurants {
		if r.Homepage != "" {
			if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
				target = r
				break
			}
		}
	}
	if target == nil {
		t.Fatal("no target restaurant")
	}
	home := strings.TrimSuffix(target.Homepage, "/") + "/"
	ff.gone[home] = true

	if !woc.DocIndex.Has(home) {
		t.Fatal("homepage not indexed before refresh")
	}
	assocBefore := len(woc.AssocOf(home))
	if assocBefore == 0 {
		t.Fatal("homepage had no associations before refresh")
	}

	stats, err := b.Refresh(woc, []string{home})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesGone != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if woc.DocIndex.Has(home) {
		t.Error("gone page still in the document index")
	}
	if len(woc.AssocOf(home)) != 0 {
		t.Error("gone page still has associations")
	}
	// The record survives (other sources still describe the restaurant) but
	// no longer points at the dead page.
	recs := woc.Records.ByAttr("restaurant", "phone", target.Phone)
	if len(recs) != 1 {
		t.Fatalf("record lost: %d", len(recs))
	}
	for _, u := range woc.PagesOf(recs[0].ID) {
		if u == home {
			t.Error("record still linked to gone page")
		}
	}
}

// TestRefreshResurrectsGonePage pins the gone→reappear bug: a page that
// vanishes and later returns with byte-identical content must rejoin the
// document index and association maps. Before webgraph.Store.Delete
// existed, the stale page (and its content hash) stayed in woc.Pages, so
// the reappearance registered as unchanged and was silently dropped.
func TestRefreshResurrectsGonePage(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ff := &flakyFetcher{w: w, gone: map[string]bool{}}
	b := &Builder{Fetcher: ff, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}

	var target *webgen.Restaurant
	for _, r := range w.Restaurants {
		if r.Homepage != "" {
			if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
				target = r
				break
			}
		}
	}
	if target == nil {
		t.Fatal("no target restaurant")
	}
	home := strings.TrimSuffix(target.Homepage, "/") + "/"
	recID := woc.Records.ByAttr("restaurant", "phone", target.Phone)[0].ID

	// The page dies.
	ff.gone[home] = true
	if _, err := b.Refresh(woc, []string{home}); err != nil {
		t.Fatal(err)
	}
	if woc.DocIndex.Has(home) {
		t.Fatal("gone page still indexed")
	}
	if _, err := woc.Pages.Get(home); err == nil {
		t.Fatal("gone page still in the page store")
	}

	// The page returns with identical bytes ("the restaurant re-opens").
	delete(ff.gone, home)
	stats, err := b.Refresh(woc, []string{home})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesChanged != 1 {
		t.Fatalf("resurrection not detected as a change: %+v", stats)
	}
	if !woc.DocIndex.Has(home) {
		t.Error("resurrected page missing from the document index")
	}
	if _, err := woc.Pages.Get(home); err != nil {
		t.Error("resurrected page missing from the page store")
	}
	found := false
	for _, id := range woc.AssocOf(home) {
		if id == recID {
			found = true
		}
	}
	if !found {
		t.Errorf("resurrected page not re-associated with its record: %v", woc.AssocOf(home))
	}
	recs := woc.Records.ByAttr("restaurant", "phone", target.Phone)
	if len(recs) != 1 {
		t.Fatalf("record count after resurrection = %d", len(recs))
	}
}

// TestUpsertTieBreakLowestID pins the entity-match tie-break: when two
// stored candidates score identically against an incoming record, the merge
// must land on the lowest record ID — ByConcept iterates in ascending ID
// order and an incumbent is displaced only by a strictly higher score.
func TestUpsertTieBreakLowestID(t *testing.T) {
	reg := lrec.NewRegistry()
	reg.Register(lrec.Concept{Name: "widget", Domain: "test", Attrs: []lrec.AttrSpec{
		{Key: "name", Kind: lrec.KindName}, {Key: "color", Kind: lrec.KindText},
	}})
	// One comparator whose agreement weight log(0.99/0.01) ≈ 4.6 clears the
	// default Upper threshold of 4.5 on its own.
	m := match.NewMatcher([]match.Comparator{{
		Key: "name",
		Sim: match.SimFunc(func(a, b string) float64 {
			if a == b {
				return 1
			}
			return 0
		}),
		AgreeAt: 0.9, M: 0.99, U: 0.01,
	}})
	b := &Builder{Cfg: Config{Registry: reg, Matchers: map[string]*match.Matcher{"widget": m}}}
	woc := &WebOfConcepts{
		Registry: reg,
		Records:  lrec.NewMemStore(lrec.WithRegistry(reg)),
		Pages:    webgraph.NewStore(),
		DocIndex: index.NewSharded(1),
		RecIndex: index.NewSharded(1),
		Assoc:    map[string][]string{},
		RevAssoc: map[string][]string{},
	}
	// Insert in descending-ID order so "first stored wins" cannot mask an
	// iteration-order accident.
	for _, id := range []string{"widget:zz", "widget:aa"} {
		r := lrec.NewRecord(id, "widget")
		r.Set("name", "Same Name")
		if err := woc.Records.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	c := extract.NewCandidate("widget", "w.example/x", "test")
	c.Add("name", "Same Name", 1)
	c.Add("color", "blue", 1)
	created, updated := b.upsert(woc, c.ToRecord(c.SynthesizeID(), woc.Records.NextSeq()))
	if created != 0 || updated != 1 {
		t.Fatalf("upsert = (%d created, %d updated), want (0, 1)", created, updated)
	}
	low, _ := woc.Records.Get("widget:aa")
	if low.Get("color") != "blue" {
		t.Errorf("equal-score merge skipped the lowest ID: widget:aa = %s", low)
	}
	high, _ := woc.Records.Get("widget:zz")
	if high.Get("color") != "" {
		t.Errorf("equal-score merge landed on the highest ID: widget:zz = %s", high)
	}
}

// TestReconcileDegradedStore: when the store latches read-only mid-flight,
// Reconcile must not diverge what callers read from what the store holds —
// the trim happens on a clone and is only adopted after a successful put.
func TestReconcileDegradedStore(t *testing.T) {
	reg := lrec.NewRegistry()
	reg.Register(lrec.Concept{Name: "widget", Domain: "test", Attrs: []lrec.AttrSpec{
		{Key: "phone", Kind: lrec.KindPhone, MaxValues: 1},
	}})
	mk := func() *WebOfConcepts {
		store := lrec.NewMemStore(lrec.WithRegistry(reg))
		r := lrec.NewRecord("widget:1", "widget")
		r.Add("phone", lrec.AttrValue{Value: "111", Confidence: 0.9, Prov: lrec.Provenance{Seq: 1}})
		r.Add("phone", lrec.AttrValue{Value: "222", Confidence: 0.8, Prov: lrec.Provenance{Seq: 2}})
		if err := store.Put(r); err != nil {
			t.Fatal(err)
		}
		return &WebOfConcepts{Registry: reg, Records: store}
	}

	// Healthy store: the over-full attribute trims and persists.
	healthy := mk()
	if changed := healthy.Reconcile("widget", PreferRecent); changed != 1 {
		t.Fatalf("healthy reconcile changed = %d, want 1", changed)
	}
	if cur, _ := healthy.Records.Get("widget:1"); len(cur.All("phone")) != 1 {
		t.Fatalf("healthy reconcile left %d phones", len(cur.All("phone")))
	}

	// Degraded store: the put fails, nothing is counted, and the stored
	// record still holds both values — no memory/store divergence.
	degraded := mk()
	degraded.Records.LatchReadOnly(fmt.Errorf("injected log failure"))
	if changed := degraded.Reconcile("widget", PreferRecent); changed != 0 {
		t.Errorf("degraded reconcile changed = %d, want 0", changed)
	}
	cur, err := degraded.Records.Get("widget:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.All("phone")) != 2 {
		t.Errorf("degraded reconcile diverged: store holds %d phone values, want 2 untouched", len(cur.All("phone")))
	}
}

// TestLiveValueErrorPaths covers the three failure modes of the live-read
// path: a value with no source URL in its provenance, a fetch failure on
// the source page, and a refetched page the recognizer no longer matches.
func TestLiveValueErrorPaths(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	of := &overlayFetcher{w: w, overlay: map[string]string{}}
	ff := &flakyFetcher{w: w, gone: map[string]bool{}}
	// Chain: gone-able wrapper over the overlay wrapper over the world.
	fetch := webgraph.FetcherFunc(func(url string) (string, error) {
		if ff.gone[url] {
			return "", fmt.Errorf("gone: %s", url)
		}
		return of.Fetch(url)
	})
	b := &Builder{Fetcher: fetch, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	var rec *lrec.Record
	for _, r := range w.Restaurants {
		if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
			rec = recs[0]
			break
		}
	}
	if rec == nil {
		t.Fatal("no target record")
	}
	best, _ := rec.Best("phone")
	src := best.Prov.SourceURL
	if src == "" {
		t.Fatal("target phone has no provenance; test setup broken")
	}

	// Missing provenance URL: a record whose best value carries no source.
	unsourced := lrec.NewRecord("restaurant:unsourced-test", "restaurant")
	unsourced.Add("name", lrec.AttrValue{Value: "No Prov Cafe", Confidence: 1})
	unsourced.Add("phone", lrec.AttrValue{Value: "408-555-0000", Confidence: 1})
	if err := woc.Records.Put(unsourced); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LiveValue(woc, "restaurant:unsourced-test", "phone"); err == nil {
		t.Error("unsourced value should fail")
	}

	// Fetch failure: the source page is gone.
	ff.gone[src] = true
	if _, err := b.LiveValue(woc, rec.ID, "phone"); err == nil {
		t.Error("fetch failure should surface as an error")
	}
	delete(ff.gone, src)

	// Recognizer miss: the page now holds no recognizable phone.
	of.overlay[src] = "<html><head><title>moved</title></head><body>we have moved, call the new owner</body></html>"
	if _, err := b.LiveValue(woc, rec.ID, "phone"); err == nil {
		t.Error("recognizer miss should surface as an error")
	}
}

func TestLiveValueReadsSourceDocument(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	of := &overlayFetcher{w: w, overlay: map[string]string{}}
	b := &Builder{Fetcher: of, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	var target *webgen.Restaurant
	var rec *lrec.Record
	for _, r := range w.Restaurants {
		if recs := woc.Records.ByAttr("restaurant", "phone", r.Phone); len(recs) == 1 {
			target, rec = r, recs[0]
			break
		}
	}
	if target == nil {
		t.Fatal("no target")
	}
	// Live value agrees with the store before any change.
	live, err := b.LiveValue(woc, rec.ID, "phone")
	if err != nil {
		t.Fatal(err)
	}
	// Now the source page changes; the store is stale but LiveValue is not.
	best, _ := rec.Best("phone")
	src := best.Prov.SourceURL
	page, ok := w.PageByURL(src)
	if !ok {
		t.Fatalf("source %s not in world", src)
	}
	const newPhone = "408-555-4242"
	of.overlay[src] = strings.ReplaceAll(page.HTML, best.Value, newPhone)
	live2, err := b.LiveValue(woc, rec.ID, "phone")
	if err != nil {
		t.Fatal(err)
	}
	if live2 == live {
		t.Fatalf("live value did not change: %q", live2)
	}
	if got := onlyDigitsTest(live2); got != onlyDigitsTest(newPhone) {
		t.Errorf("live = %q, want %q", live2, newPhone)
	}
	// Store still holds the old value (LiveValue is read-only).
	cur, _ := woc.Records.Get(rec.ID)
	if v, _ := cur.Best("phone"); onlyDigitsTest(v.Value) == onlyDigitsTest(newPhone) {
		t.Error("LiveValue mutated the store")
	}
	// Errors: unknown record, unsourced key.
	if _, err := b.LiveValue(woc, "nope", "phone"); err == nil {
		t.Error("unknown record should fail")
	}
	if _, err := b.LiveValue(woc, rec.ID, "nonexistent-attr"); err == nil {
		t.Error("missing attribute should fail")
	}
}

func onlyDigitsTest(s string) string {
	out := []byte{}
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			out = append(out, s[i])
		}
	}
	return string(out)
}
