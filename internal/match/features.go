package match

import (
	"slices"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Prepared comparison features. A record in a heavy-tail block is compared
// hundreds of times, so everything a comparison derives from one value —
// normalization, tokens, packed trigrams, the most specific name — is
// computed once per record and kept in its Features; scoring a pair then
// only intersects sorted slices and compares strings.

// Similarity compares attribute values in two steps: prepare derives one
// value's comparison features, and compare maps two prepared non-empty
// values to [0,1]. The built-ins cover names, street-style trigram
// similarity, equality after normalization and equality of digits; SimFunc
// adapts any other string measure.
type Similarity interface {
	prepare(v string) feature
	compare(a, b *feature) float64
}

// feature is one attribute value prepared for comparison. Each Similarity
// fills only the fields its compare step reads.
type feature struct {
	key  string   // normalized value, digits, or the raw value (SimFunc)
	tri  []uint64 // textproc.Trigrams
	toks []string // sorted distinct tokens of the normalized value
}

// SimFunc adapts a string similarity to Similarity. Its prepare step keeps
// the raw value, so every comparison pays f's full cost.
type SimFunc func(a, b string) float64

func (f SimFunc) prepare(v string) feature      { return feature{key: v} }
func (f SimFunc) compare(a, b *feature) float64 { return f(a.key, b.key) }

// nameSimilarity combines trigram and token overlap, tolerant of the suffix
// dropping and decoration that sources apply to business names.
type nameSimilarity struct{}

func (nameSimilarity) prepare(v string) feature {
	n := textproc.Normalize(v)
	toks := textproc.Tokenize(n)
	slices.Sort(toks)
	return feature{tri: textproc.Trigrams(n), toks: slices.Compact(toks)}
}

func (nameSimilarity) compare(a, b *feature) float64 {
	tri := textproc.Dice(a.tri, b.tri)
	// Containment: "gochi fusion tapas" vs "gochi" — score the shorter
	// against its best containment in the longer.
	var cont float64
	if small := min(len(a.toks), len(b.toks)); small > 0 {
		cont = float64(textproc.Overlap(a.toks, b.toks)) / float64(small)
	}
	if cont > tri {
		return cont
	}
	return tri
}

// trigramSimilarity is textproc.TrigramSim.
type trigramSimilarity struct{}

func (trigramSimilarity) prepare(v string) feature { return feature{tri: textproc.Trigrams(v)} }
func (trigramSimilarity) compare(a, b *feature) float64 {
	return textproc.Dice(a.tri, b.tri)
}

// equalNormSimilarity is exact equality after normalization.
type equalNormSimilarity struct{}

func (equalNormSimilarity) prepare(v string) feature { return feature{key: textproc.Normalize(v)} }
func (equalNormSimilarity) compare(a, b *feature) float64 {
	return boolSim(a.key == b.key)
}

// digitsSimilarity compares only the digits of two strings (phone formats).
type digitsSimilarity struct{}

func (digitsSimilarity) prepare(v string) feature { return feature{key: onlyDigits(v)} }
func (digitsSimilarity) compare(a, b *feature) float64 {
	return boolSim(a.key == b.key)
}

func boolSim(eq bool) float64 {
	if eq {
		return 1
	}
	return 0
}

// Features is one record's comparison features under a matcher: for each
// comparator, its prepared values — the most specific value alone for a
// MostSpecific comparator, every value otherwise, none when the record
// lacks the attribute. Features belong to the matcher that prepared them.
type Features struct {
	attrs [][]feature
}

// Prepare derives r's comparison features once, for any number of
// ScorePrepared calls.
func (m *Matcher) Prepare(r *lrec.Record) *Features {
	f := &Features{attrs: make([][]feature, len(m.Comparators))}
	for i, c := range m.Comparators {
		f.attrs[i] = prepareAttr(c, r)
	}
	return f
}

func prepareAttr(c Comparator, r *lrec.Record) []feature {
	vals := r.All(c.Key)
	if len(vals) == 0 {
		return nil
	}
	if c.MostSpecific {
		return []feature{c.Sim.prepare(mostSpecific(vals))}
	}
	out := make([]feature, len(vals))
	for i, v := range vals {
		out[i] = c.Sim.prepare(v.Value)
	}
	return out
}

// featureCache holds the prepared features of each current cluster
// representative, keyed by record pointer, prepared on first use.
type featureCache struct {
	m     *Matcher
	byRec map[*lrec.Record]*Features
}

func newFeatureCache(m *Matcher, n int) featureCache {
	return featureCache{m: m, byRec: make(map[*lrec.Record]*Features, n)}
}

func (c featureCache) get(r *lrec.Record) *Features {
	f, ok := c.byRec[r]
	if !ok {
		f = c.m.Prepare(r)
		c.byRec[r] = f
	}
	return f
}

// decide classifies the pair a, b from their cached features.
func (c featureCache) decide(a, b *lrec.Record) Decision {
	return c.m.decide(c.m.ScorePrepared(c.get(a), c.get(b)))
}
