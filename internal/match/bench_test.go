package match

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the two formerly super-linear hot paths of the build:
// §5.4 text matching (link stage) and collective resolution (resolve stage).
// Each has a *Reference variant running the retained naive implementation,
// so `make microbench` archives the speedup alongside the absolute numbers.

func benchTextCorpusAndQueries() (*TextMatcher, [][]string) {
	rng := rand.New(rand.NewSource(1))
	vocab := propVocab(99)
	tm := NewTextMatcher(randomTextCorpus(rng, vocab, 2000))
	queries := make([][]string, 64)
	for i := range queries {
		queries[i] = randomQuery(rng, vocab, 80)
	}
	return tm, queries
}

func BenchmarkMatchTokens(b *testing.B) {
	tm, queries := benchTextCorpusAndQueries()
	tm.MatchTokens(queries[0], 1) // freeze outside the timing loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.MatchTokens(queries[i%len(queries)], 1)
	}
}

func BenchmarkMatchTokensReference(b *testing.B) {
	tm, queries := benchTextCorpusAndQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.matchTokensReference(queries[i%len(queries)], 1)
	}
}

// The resolve benchmarks share a corpus concentrated into a handful of
// zips, so the dominant blocks are oversized: the blocked resolver takes
// the sorted-neighborhood split path and scores from prepared features,
// while the reference pays all-pairs with the string-based scorer.
func BenchmarkResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := randomRestaurantCorpus(rng, 160)
	m := NewMatcher(RestaurantComparators())
	opts := DefaultCollectiveOptions()
	opts.MaxBlock = 16
	opts.Window = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Resolve(recs, m, opts)
	}
}

func BenchmarkResolveReference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := randomRestaurantCorpus(rng, 160)
	m := NewMatcher(RestaurantComparators())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolveReference(recs, m, DefaultCollectiveOptions())
	}
}
