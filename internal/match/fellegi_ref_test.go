package match

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// The string-based scorer the prepared-feature path replaced, kept as the
// reference: every comparison re-normalizes both values, builds map-based
// trigram and token sets, and re-resolves the most specific name. Prepared
// Score must return the same float64 bits on every pair.

// equalNorm is exact equality after normalization.
func equalNorm(a, b string) float64 {
	if textproc.Normalize(a) == textproc.Normalize(b) {
		return 1
	}
	return 0
}

// digitsEqual compares only the digits of two strings (phone formats).
func digitsEqual(a, b string) float64 {
	if onlyDigits(a) == onlyDigits(b) {
		return 1
	}
	return 0
}

// trigramSimMap is the map-based textproc.TrigramSim.
func trigramSimMap(a, b string) float64 {
	set := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, g := range textproc.CharNGrams(s, 3) {
			m[g] = true
		}
		return m
	}
	ta, tb := set(a), set(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := 0
	for t := range ta {
		if tb[t] {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(ta)+len(tb))
}

// nameSim combines trigram and token overlap, tolerant of the suffix
// dropping and decoration that sources apply to business names.
func nameSim(a, b string) float64 {
	an, bn := textproc.Normalize(a), textproc.Normalize(b)
	tri := trigramSimMap(an, bn)
	// Containment: "gochi fusion tapas" vs "gochi" — score the shorter
	// against its best containment in the longer.
	at, bt := textproc.TokenSet(textproc.Tokenize(an)), textproc.TokenSet(textproc.Tokenize(bn))
	small, large := at, bt
	if len(bt) < len(at) {
		small, large = bt, at
	}
	contained := 0
	for t := range small {
		if large[t] {
			contained++
		}
	}
	var cont float64
	if len(small) > 0 {
		cont = float64(contained) / float64(len(small))
	}
	if cont > tri {
		return cont
	}
	return tri
}

// referenceSim returns the string measure a Similarity computes.
func referenceSim(s Similarity) func(a, b string) float64 {
	switch s := s.(type) {
	case nameSimilarity:
		return nameSim
	case trigramSimilarity:
		return trigramSimMap
	case equalNormSimilarity:
		return equalNorm
	case digitsSimilarity:
		return digitsEqual
	case SimFunc:
		return s
	}
	panic(fmt.Sprintf("no reference for %T", s))
}

// compareAttrReference is CompareAttr as it was before prepared features.
func compareAttrReference(c Comparator, a, b *lrec.Record) Agreement {
	sim := referenceSim(c.Sim)
	if _, ok := a.Best(c.Key); !ok {
		return AgreementMissing
	}
	if _, ok := b.Best(c.Key); !ok {
		return AgreementMissing
	}
	if c.MostSpecific {
		if sim(mostSpecific(a.All(c.Key)), mostSpecific(b.All(c.Key))) >= c.AgreeAt {
			return Agree
		}
		return Disagree
	}
	best := 0.0
	for _, x := range a.All(c.Key) {
		for _, y := range b.All(c.Key) {
			if s := sim(x.Value, y.Value); s > best {
				best = s
			}
		}
	}
	if best >= c.AgreeAt {
		return Agree
	}
	return Disagree
}

func (m *Matcher) scoreReference(a, b *lrec.Record) float64 {
	var s float64
	for _, c := range m.Comparators {
		s += c.Weight(compareAttrReference(c, a, b))
	}
	return s
}

func (m *Matcher) decideReference(a, b *lrec.Record) Decision {
	return m.decide(m.scoreReference(a, b))
}

// randomPropRecord draws a record for the comparator property test:
// multi-valued attributes, missing attributes, empty and one-rune values,
// punctuation-only values (empty normalized keys), and non-ASCII names.
func randomPropRecord(rng *rand.Rand, id int, concept string, keys []string) *lrec.Record {
	words := []string{"gochi", "fusion", "tapas", "old", "hearth", "diner",
		"sushi", "bar", "café", "Straße", "日本", "料理", "ñandú", "o'brien's",
		"x", "é", "", "!!", "-", "blue", "agave", "42", "İstanbul"}
	val := func() string {
		n := rng.Intn(5)
		v := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				v += " "
			}
			v += words[rng.Intn(len(words))]
		}
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1:
			return string([]rune("aé日1")[rng.Intn(4)])
		case 2:
			return fmt.Sprintf("(650) 555-%04d", rng.Intn(3))
		case 3:
			return fmt.Sprintf("%d Castro St.", 100+rng.Intn(3))
		}
		return v
	}
	r := lrec.NewRecord(fmt.Sprintf("p%05d", id), concept)
	for _, k := range keys {
		for n := rng.Intn(4); n > 0; n-- {
			r.Add(k, lrec.AttrValue{Value: val(), Confidence: 0.5 + 0.1*float64(rng.Intn(5))})
		}
	}
	return r
}

// TestScorePreparedMatchesReference: prepared Score, Decide and CompareAttr
// agree with the string-based reference scorer to the last bit on random
// restaurant and publication records.
func TestScorePreparedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		m    *Matcher
		keys []string
	}{
		{NewMatcher(RestaurantComparators()), []string{"name", "zip", "phone", "street", "city", "cuisine"}},
		{NewMatcher(PublicationComparators()), []string{"title", "venue", "year"}},
		{NewMatcher([]Comparator{{Key: "name", Sim: SimFunc(textproc.JaroWinkler), AgreeAt: 0.9, M: 0.9, U: 0.1}}), []string{"name"}},
	}
	for ci, tc := range cases {
		recs := make([]*lrec.Record, 300)
		for i := range recs {
			recs[i] = randomPropRecord(rng, i, "restaurant", tc.keys)
		}
		feats := make([]*Features, len(recs))
		for i, r := range recs {
			feats[i] = tc.m.Prepare(r)
		}
		for i := range recs {
			for _, j := range []int{i, (i + 1) % len(recs), rng.Intn(len(recs)), rng.Intn(len(recs))} {
				a, b := recs[i], recs[j]
				want := tc.m.scoreReference(a, b)
				if got := tc.m.Score(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d: Score(%s, %s) = %v, reference %v", ci, a, b, got, want)
				}
				if got := tc.m.ScorePrepared(feats[i], feats[j]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d: ScorePrepared(%s, %s) = %v, reference %v", ci, a, b, got, want)
				}
				if got, want := tc.m.Decide(a, b), tc.m.decideReference(a, b); got != want {
					t.Fatalf("case %d: Decide(%s, %s) = %v, reference %v", ci, a, b, got, want)
				}
				for _, c := range tc.m.Comparators {
					if got, want := CompareAttr(c, a, b), compareAttrReference(c, a, b); got != want {
						t.Fatalf("case %d: CompareAttr(%s) on %s, %s = %v, reference %v", ci, c.Key, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestNameSimPreparedMatchesReference compares the name measure alone on
// value pairs, bit for bit.
func TestNameSimPreparedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		a := randomPropRecord(rng, 0, "restaurant", []string{"name"}).Get("name")
		b := randomPropRecord(rng, 1, "restaurant", []string{"name"}).Get("name")
		if i%5 == 0 {
			b = a
		}
		fa, fb := nameSimilarity{}.prepare(a), nameSimilarity{}.prepare(b)
		got, want := nameSimilarity{}.compare(&fa, &fb), nameSim(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("name similarity (%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}
