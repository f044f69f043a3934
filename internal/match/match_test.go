package match

import (
	"math"
	"testing"

	"conceptweb/internal/lrec"
)

func rest(id, name, zip, phone, city string) *lrec.Record {
	r := lrec.NewRecord(id, "restaurant").Set("name", name).Set("city", city)
	if zip != "" {
		r.Set("zip", zip)
	}
	if phone != "" {
		r.Set("phone", phone)
	}
	return r
}

func TestMatcherScoresObviousPairs(t *testing.T) {
	m := NewMatcher(RestaurantComparators())
	a := rest("a", "Gochi Fusion Tapas", "95014", "408-555-0101", "Cupertino")
	b := rest("b", "Gochi", "95014", "(408) 555-0101", "Cupertino")
	c := rest("c", "Red Lantern Noodle Bar", "95112", "408-555-0999", "San Jose")
	if d := m.Decide(a, b); d != Match {
		t.Errorf("a~b = %v (score %.2f)", d, m.Score(a, b))
	}
	if d := m.Decide(a, c); d != NonMatch {
		t.Errorf("a~c = %v (score %.2f)", d, m.Score(a, c))
	}
	if m.Score(a, b) <= m.Score(a, c) {
		t.Error("score ordering wrong")
	}
}

func TestMatcherMissingDataNeutral(t *testing.T) {
	m := NewMatcher(RestaurantComparators())
	a := rest("a", "Gochi Fusion Tapas", "", "", "")
	b := rest("b", "Gochi Fusion Tapas", "95014", "408-555-0101", "Cupertino")
	// Name agreement alone should still push toward match, and missing
	// attributes must not count as disagreement.
	if s := m.Score(a, b); s <= 0 {
		t.Errorf("score with missing attrs = %.2f", s)
	}
}

func TestPhoneFormatInsensitive(t *testing.T) {
	m := NewMatcher(RestaurantComparators())
	a := rest("a", "Casa Azul", "", "408.555.0123", "")
	b := rest("b", "Casa Azul Taqueria", "", "(408) 555-0123", "")
	if m.Decide(a, b) != Match {
		t.Errorf("phone formats broke matching (score %.2f)", m.Score(a, b))
	}
}

func TestNameSimVariants(t *testing.T) {
	cases := []struct {
		a, b string
		hi   bool
	}{
		{"Gochi Fusion Tapas", "Gochi", true},
		{"Blue Agave Cantina", "Blue Agave Cantina Mexican Restaurant", true},
		{"Blue Agave Cantina", "Red Lantern Noodles", false},
		{"Golden Dragon Grill", "Golden Orchid Grill", false},
	}
	for _, c := range cases {
		fa, fb := nameSimilarity{}.prepare(c.a), nameSimilarity{}.prepare(c.b)
		s := nameSimilarity{}.compare(&fa, &fb)
		if c.hi && s < 0.75 {
			t.Errorf("nameSim(%q,%q) = %.2f, want high", c.a, c.b, s)
		}
		if !c.hi && s >= 0.75 {
			t.Errorf("nameSim(%q,%q) = %.2f, want low", c.a, c.b, s)
		}
	}
}

func TestComparatorWeights(t *testing.T) {
	c := Comparator{M: 0.9, U: 0.1}
	if w := c.Weight(Agree); math.Abs(w-math.Log(9)) > 1e-9 {
		t.Errorf("agree weight = %f", w)
	}
	if w := c.Weight(Disagree); math.Abs(w-math.Log(0.1/0.9)) > 1e-9 {
		t.Errorf("disagree weight = %f", w)
	}
	if w := c.Weight(AgreementMissing); w != 0 {
		t.Errorf("missing weight = %f", w)
	}
}

func TestEstimateMU(t *testing.T) {
	comps := []Comparator{{Key: "zip", Sim: equalNormSimilarity{}, AgreeAt: 1, M: 0.5, U: 0.5}}
	var pairs []LabeledPair
	// Same-entity pairs agree on zip 9/10 times; different 1/10.
	for i := 0; i < 10; i++ {
		zipB := "95014"
		if i == 0 {
			zipB = "95999"
		}
		pairs = append(pairs, LabeledPair{
			A: rest("a", "X", "95014", "", ""), B: rest("b", "X", zipB, "", ""), Same: true})
	}
	for i := 0; i < 10; i++ {
		zipB := "95000"
		if i == 0 {
			zipB = "95014"
		}
		pairs = append(pairs, LabeledPair{
			A: rest("a", "X", "95014", "", ""), B: rest("b", "Y", zipB, "", ""), Same: false})
	}
	est := EstimateMU(comps, pairs)
	if est[0].M < 0.7 || est[0].M > 0.95 {
		t.Errorf("M = %f", est[0].M)
	}
	if est[0].U < 0.05 || est[0].U > 0.3 {
		t.Errorf("U = %f", est[0].U)
	}
}

func TestBlocking(t *testing.T) {
	recs := []*lrec.Record{
		rest("a", "Gochi Fusion", "95014", "408-555-0101", "Cupertino"),
		rest("b", "Gochi", "95014", "", "Cupertino"),
		rest("c", "Unrelated Diner", "95999", "", "Elsewhere"),
		rest("d", "Gochi Tapas", "", "408-555-0101", "Cupertino"),
	}
	pairs := BlockBy(recs, ZipBlock, NameTokenBlock, PhoneBlock)
	has := func(x, y string) bool {
		want := MakePair(x, y)
		for _, p := range pairs {
			if p == want {
				return true
			}
		}
		return false
	}
	if !has("a", "b") {
		t.Error("zip block missed a-b")
	}
	if !has("a", "d") {
		t.Error("phone/name block missed a-d")
	}
	if has("a", "c") || has("b", "c") {
		t.Error("blocking produced cross-block pair with c")
	}
	// No duplicates.
	seen := map[Pair]int{}
	for _, p := range pairs {
		seen[p]++
		if seen[p] > 1 {
			t.Errorf("duplicate pair %v", p)
		}
	}
}

func TestPairwiseResolve(t *testing.T) {
	recs := []*lrec.Record{
		rest("w", "Gochi Fusion Tapas", "95014", "408-555-0101", "Cupertino"),
		rest("c", "Gochi Fusion", "95014", "(408) 555-0101", "Cupertino"),
		rest("x", "Red Lantern Noodle Bar", "95112", "408-555-0202", "San Jose"),
	}
	clusters := PairwiseResolve(recs, NewMatcher(RestaurantComparators()))
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters: %+v", len(clusters), clusters)
	}
	if len(clusters[0].Members) != 2 {
		t.Errorf("cluster members = %v", clusters[0].Members)
	}
	// The representative holds merged evidence.
	if clusters[0].Rep.Get("phone") == "" || clusters[0].Rep.Get("zip") != "95014" {
		t.Errorf("rep = %s", clusters[0].Rep)
	}
}

func TestCollectiveResolvesChains(t *testing.T) {
	// "Gochi" (no zip, no phone, just city) matches the full record only
	// weakly; but after "Gochi Fusion Tapas" merges with the phone-bearing
	// variant, the merged evidence pulls the sparse record in. Construct:
	// a: full name + zip;  b: full name + phone;  c: short name + phone.
	a := rest("a", "Gochi Fusion Tapas", "95014", "", "Cupertino")
	b := rest("b", "Gochi Fusion Tapas", "", "408-555-0101", "Cupertino")
	c := rest("c", "Gochi", "", "408-555-0101", "Cupertino")
	m := NewMatcher(RestaurantComparators())
	collective := Resolve([]*lrec.Record{a, b, c}, m, DefaultCollectiveOptions())
	if len(collective) != 1 {
		t.Fatalf("collective clusters = %d, want 1: %+v", len(collective), collective)
	}
	rep := collective[0].Rep
	if rep.Get("zip") != "95014" || rep.Get("phone") == "" {
		t.Errorf("merged rep = %s", rep)
	}
}

func TestResolveKeepsDistinctEntitiesApart(t *testing.T) {
	// Same chain name, different cities/zips: two records that must NOT
	// merge (same-name different-instance is the classic EM trap).
	a := rest("a", "Pizza My Heart", "95014", "408-555-0301", "Cupertino")
	b := rest("b", "Pizza My Heart", "95112", "408-555-0302", "San Jose")
	clusters := Resolve([]*lrec.Record{a, b}, NewMatcher(RestaurantComparators()), DefaultCollectiveOptions())
	if len(clusters) != 2 {
		t.Fatalf("chain locations merged: %+v", clusters)
	}
}

func TestResolveEmptyAndSingle(t *testing.T) {
	m := NewMatcher(RestaurantComparators())
	if got := Resolve(nil, m, DefaultCollectiveOptions()); len(got) != 0 {
		t.Error("empty resolve")
	}
	one := []*lrec.Record{rest("a", "Solo Cafe", "95014", "", "Cupertino")}
	got := Resolve(one, m, DefaultCollectiveOptions())
	if len(got) != 1 || len(got[0].Members) != 1 {
		t.Errorf("single resolve = %+v", got)
	}
}

func TestTextMatcher(t *testing.T) {
	records := []*lrec.Record{
		rest("gochi", "Gochi Fusion Tapas", "95014", "", "Cupertino").
			Set("menu", "salmon nigiri; tonkotsu ramen; gyoza"),
		rest("azul", "Casa Azul Taqueria", "95112", "", "San Jose").
			Set("menu", "carne asada tacos; salsa verde; guacamole"),
		rest("lantern", "Red Lantern Noodle Bar", "95112", "", "San Jose").
			Set("menu", "dan dan noodles; dumplings; chow mein"),
	}
	tm := NewTextMatcher(records)

	got := tm.Match("had amazing gyoza and ramen at Gochi in Cupertino last night", 3)
	if len(got) == 0 || got[0].Record.ID != "gochi" {
		t.Fatalf("match = %+v", got)
	}
	got = tm.Match("the salsa verde and tacos at Casa Azul are the best in San Jose", 1)
	if len(got) != 1 || got[0].Record.ID != "azul" {
		t.Fatalf("match = %+v", got)
	}
	// Text about nothing in the corpus.
	if got := tm.Match("quarterly earnings report for the semiconductor industry", 3); len(got) != 0 {
		for _, g := range got {
			if g.Score > 0.5 {
				t.Errorf("high-confidence spurious match: %+v", g)
			}
		}
	}
}

func TestTextMatcherBest(t *testing.T) {
	records := []*lrec.Record{
		rest("gochi", "Gochi Fusion Tapas", "95014", "", "Cupertino"),
		rest("azul", "Casa Azul Taqueria", "95112", "", "San Jose"),
	}
	tm := NewTextMatcher(records)
	if r, ok := tm.Best("dinner at gochi fusion tapas in cupertino", 0.1); !ok || r.ID != "gochi" {
		t.Errorf("best = %v %v", r, ok)
	}
	if _, ok := tm.Best("totally unrelated text", 0.1); ok {
		t.Error("unrelated text matched")
	}
	if _, ok := tm.Best("", 0); ok {
		t.Error("empty text matched")
	}
}

func TestDecisionString(t *testing.T) {
	if Match.String() != "match" || NonMatch.String() != "nonmatch" || Possible.String() != "possible" {
		t.Error("decision names")
	}
}
