package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"conceptweb/internal/lrec"
)

// resolveReference is the pre-blocked-streaming Resolve: clone every record
// up front, materialize the deduplicated pair list with BlockBy each round,
// rebuild every cluster representative after any merge, and score each pair
// with the string-based reference scorer (fellegi_ref_test.go). Kept
// verbatim as the equivalence oracle for the streaming, cap-or-split,
// prepared-feature resolver.
func resolveReference(records []*lrec.Record, m *Matcher, opts CollectiveOptions) []Cluster {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 3
	}
	if len(opts.Blockers) == 0 {
		opts.Blockers = DefaultCollectiveOptions().Blockers
	}
	uf := newUnionFind()
	for _, r := range records {
		uf.find(r.ID)
	}
	byID := make(map[string]*lrec.Record, len(records))
	for _, r := range records {
		byID[r.ID] = r
	}
	reps := make([]*lrec.Record, len(records))
	for i, r := range records {
		reps[i] = r.Clone()
	}
	for round := 0; round < opts.MaxRounds; round++ {
		pairs := BlockBy(reps, opts.Blockers...)
		merged := false
		repByID := make(map[string]*lrec.Record, len(reps))
		for _, r := range reps {
			repByID[r.ID] = r
		}
		for _, p := range pairs {
			a, b := repByID[p.A], repByID[p.B]
			if a == nil || b == nil || uf.find(a.ID) == uf.find(b.ID) {
				continue
			}
			if m.decideReference(a, b) == Match {
				uf.union(a.ID, b.ID)
				merged = true
			}
		}
		if !merged {
			break
		}
		groups := make(map[string][]*lrec.Record)
		for _, r := range records {
			root := uf.find(r.ID)
			groups[root] = append(groups[root], r)
		}
		reps = reps[:0]
		roots := make([]string, 0, len(groups))
		for root := range groups {
			roots = append(roots, root)
		}
		sort.Strings(roots)
		for _, root := range roots {
			rep := lrec.NewRecord(root, groups[root][0].Concept)
			for _, r := range groups[root] {
				rep.Merge(r) //nolint:errcheck
			}
			reps = append(reps, rep)
		}
	}
	groups := make(map[string][]string)
	for _, r := range records {
		root := uf.find(r.ID)
		groups[root] = append(groups[root], r.ID)
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	out := make([]Cluster, 0, len(groups))
	for _, root := range roots {
		ids := groups[root]
		sort.Strings(ids)
		rep := lrec.NewRecord(root, byID[ids[0]].Concept)
		for _, id := range ids {
			rep.Merge(byID[id]) //nolint:errcheck
		}
		out = append(out, Cluster{Rep: rep, Members: ids})
	}
	return out
}

// randomRestaurantCorpus generates entity clusters the way sources mangle
// them: each base entity appears 1–4 times under different IDs with
// truncated or decorated names, shared phones/zips, and dropped attributes.
func randomRestaurantCorpus(rng *rand.Rand, entities int) []*lrec.Record {
	words := []string{"gochi", "fusion", "tapas", "old", "hearth", "diner",
		"sushi", "bar", "golden", "dragon", "palace", "cafe", "luna", "verde",
		"blue", "fig", "olive", "grove", "red", "lantern"}
	var recs []*lrec.Record
	id := 0
	for e := 0; e < entities; e++ {
		nw := 2 + rng.Intn(3)
		name := ""
		for w := 0; w < nw; w++ {
			if w > 0 {
				name += " "
			}
			name += words[rng.Intn(len(words))]
		}
		zip := fmt.Sprintf("94%03d", rng.Intn(6))
		phone := fmt.Sprintf("(650) 555-%04d", rng.Intn(10000))
		street := fmt.Sprintf("%d castro st", 100+rng.Intn(40))
		variants := 1 + rng.Intn(4)
		for v := 0; v < variants; v++ {
			r := lrec.NewRecord(fmt.Sprintf("r%04d", id), "restaurant")
			id++
			vn := name
			if v > 0 && rng.Intn(2) == 0 {
				// Truncate to the first word — the chain-match case.
				for i := 0; i < len(vn); i++ {
					if vn[i] == ' ' {
						vn = vn[:i]
						break
					}
				}
			}
			r.Add("name", lrec.AttrValue{Value: vn, Confidence: 0.9})
			if rng.Intn(4) != 0 {
				r.Add("zip", lrec.AttrValue{Value: zip, Confidence: 0.9})
			}
			if rng.Intn(3) != 0 {
				r.Add("phone", lrec.AttrValue{Value: phone, Confidence: 0.9})
			}
			if rng.Intn(3) != 0 {
				r.Add("street", lrec.AttrValue{Value: street, Confidence: 0.8})
			}
			recs = append(recs, r)
		}
	}
	return recs
}

func clustersEqual(t *testing.T, got, want []Cluster, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d clusters, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Rep.ID != want[i].Rep.ID {
			t.Fatalf("%s: cluster %d root %q, want %q", ctx, i, got[i].Rep.ID, want[i].Rep.ID)
		}
		if fmt.Sprint(got[i].Members) != fmt.Sprint(want[i].Members) {
			t.Fatalf("%s: cluster %q members %v, want %v",
				ctx, got[i].Rep.ID, got[i].Members, want[i].Members)
		}
		if got[i].Rep.String() != want[i].Rep.String() {
			t.Fatalf("%s: cluster %q rep %s, want %s",
				ctx, got[i].Rep.ID, got[i].Rep, want[i].Rep)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: clusters not deeply equal", ctx)
	}
}

// TestResolveBlockedEqualsReference: with every block under MaxBlock (the
// default-world regime), the streaming resolver must reproduce the
// reference resolver exactly — same roots, members, and merged rep content.
func TestResolveBlockedEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMatcher(RestaurantComparators())
	for trial := 0; trial < 20; trial++ {
		recs := randomRestaurantCorpus(rng, 5+rng.Intn(40))
		got := Resolve(recs, m, DefaultCollectiveOptions())
		want := resolveReference(recs, m, DefaultCollectiveOptions())
		clustersEqual(t, got, want, fmt.Sprintf("trial %d (%d records)", trial, len(recs)))
	}
}

// stringScorer returns a matcher whose comparators run the string-based
// reference measures through SimFunc: the same resolver, with every pair
// re-deriving its features as before prepared features.
func stringScorer(m *Matcher) *Matcher {
	comps := make([]Comparator, len(m.Comparators))
	for i, c := range m.Comparators {
		c.Sim = SimFunc(referenceSim(c.Sim))
		comps[i] = c
	}
	return &Matcher{Comparators: comps, Upper: m.Upper, Lower: m.Lower}
}

// TestResolvePreparedEqualsStringScorer covers the cap-or-split path the
// reference resolver lacks: with oversized blocks split into
// sorted-neighborhood passes, prepared features and per-pair string
// scoring produce deeply equal clusters.
func TestResolvePreparedEqualsStringScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := NewMatcher(RestaurantComparators())
	ref := stringScorer(m)
	opts := DefaultCollectiveOptions()
	opts.MaxBlock = 6
	opts.Window = 3
	for trial := 0; trial < 10; trial++ {
		recs := randomRestaurantCorpus(rng, 20+rng.Intn(40))
		for _, o := range []CollectiveOptions{DefaultCollectiveOptions(), opts} {
			clustersEqual(t, Resolve(recs, m, o), Resolve(recs, ref, o),
				fmt.Sprintf("trial %d max block %d", trial, o.MaxBlock))
		}
	}
}

// TestResolveOversizedBlockDeterministic pins the cap-or-split path: with
// MaxBlock forced tiny so every zip block splits into sorted-neighborhood
// passes, the result must be identical run to run and invariant under input
// permutation, and variants of one entity must still co-cluster (adjacency
// in name order plus transitive closure recovers them).
func TestResolveOversizedBlockDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := NewMatcher(RestaurantComparators())
	opts := DefaultCollectiveOptions()
	opts.MaxBlock = 4
	opts.Window = 3
	for trial := 0; trial < 10; trial++ {
		recs := randomRestaurantCorpus(rng, 20+rng.Intn(30))
		first := Resolve(recs, m, opts)
		again := Resolve(recs, m, opts)
		clustersEqual(t, first, again, fmt.Sprintf("trial %d rerun", trial))

		shuffled := append([]*lrec.Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		perm := Resolve(shuffled, m, opts)
		if len(perm) != len(first) {
			t.Fatalf("trial %d: %d clusters after permutation, want %d",
				trial, len(perm), len(first))
		}
		for i := range first {
			if first[i].Rep.ID != perm[i].Rep.ID ||
				fmt.Sprint(first[i].Members) != fmt.Sprint(perm[i].Members) {
				t.Fatalf("trial %d: partition differs under input permutation:\n%v %v\nvs\n%v %v",
					trial, first[i].Rep.ID, first[i].Members, perm[i].Rep.ID, perm[i].Members)
			}
		}
	}
}

// TestResolveSplitStillClusters: identical duplicate records inside one
// giant block sort adjacent, so even the windowed pass must merge them.
func TestResolveSplitStillClusters(t *testing.T) {
	m := NewMatcher(RestaurantComparators())
	words := []string{"gochi", "fusion", "tapas", "hearth", "diner",
		"sushi", "golden", "dragon", "palace", "luna", "verde",
		"blue", "fig", "olive", "grove", "red", "lantern", "jasmine",
		"ember", "harvest"}
	var recs []*lrec.Record
	for i := 0; i < 40; i++ {
		e := i / 2
		r := lrec.NewRecord(fmt.Sprintf("d%02d", i), "restaurant")
		name := words[e] + " " + words[(e+3)%len(words)] + " kitchen"
		r.Add("name", lrec.AttrValue{Value: name, Confidence: 0.9})
		r.Add("zip", lrec.AttrValue{Value: "94040", Confidence: 0.9})
		r.Add("phone", lrec.AttrValue{Value: fmt.Sprintf("(650) 555-%04d", e), Confidence: 0.9})
		r.Add("street", lrec.AttrValue{Value: fmt.Sprintf("%d main st", 100+e), Confidence: 0.9})
		recs = append(recs, r)
	}
	opts := DefaultCollectiveOptions()
	opts.MaxBlock = 8
	opts.Window = 2
	clusters := Resolve(recs, m, opts)
	if len(clusters) != 20 {
		t.Fatalf("got %d clusters, want 20 (each duplicate pair merged)", len(clusters))
	}
	for _, cl := range clusters {
		if len(cl.Members) != 2 {
			t.Fatalf("cluster %q has members %v, want exactly 2", cl.Rep.ID, cl.Members)
		}
	}
}
