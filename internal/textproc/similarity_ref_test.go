package textproc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diceMap and trigramSimMap are the map-based Dice and TrigramSim that the
// packed-trigram versions replaced, kept as the reference they must match
// bit for bit.
func diceMap(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	den := len(a) + len(b)
	if den == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(den)
}

func trigramSimMap(a, b string) float64 {
	ta := make(map[string]bool)
	for _, g := range CharNGrams(a, 3) {
		ta[g] = true
	}
	tb := make(map[string]bool)
	for _, g := range CharNGrams(b, 3) {
		tb[g] = true
	}
	return diceMap(ta, tb)
}

// unpackGram inverts packGram.
func unpackGram(code uint64) string {
	n := 3
	if code>>63 == 1 {
		n = int(code >> 42 & 3)
	}
	rs := make([]rune, n)
	for i := n - 1; i >= 0; i-- {
		rs[i] = rune(code & (1<<21 - 1))
		code >>= 21
	}
	return string(rs)
}

// randomSimString draws short strings from an alphabet mixing ASCII
// letters, digits, punctuation, spaces and multi-byte runes, plus the odd
// invalid UTF-8 byte, so values range from empty keys to long names.
func randomSimString(rng *rand.Rand) string {
	alphabet := []string{"a", "b", "c", "o", "x", "1", "7", " ", " ", "-", "'", ".",
		"A", "Q", "é", "ß", "ø", "日", "本", "ñ", "İ", "\U0010FFFF", "\xff"}
	n := rng.Intn(12)
	if rng.Intn(4) == 0 {
		n = rng.Intn(3)
	}
	s := ""
	for i := 0; i < n; i++ {
		s += alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

// TestTrigramSimMatchesMapReference: the packed, sorted-slice TrigramSim
// returns the same float64 bits as the map-based version — set sizes and
// intersection counts are the same integers.
func TestTrigramSimMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fixed := []string{"", " ", "a", "é", "!!", "ab", "blue agave grill",
		"blue agave grille", "Gochi Fusion Tapas", "gochi", "日本料理 銀座", "aaaaaa"}
	var vals []string
	vals = append(vals, fixed...)
	for i := 0; i < 3000; i++ {
		vals = append(vals, randomSimString(rng))
	}
	for i, a := range vals {
		for _, b := range []string{vals[(i*7+3)%len(vals)], vals[rng.Intn(len(vals))], a} {
			got, want := TrigramSim(a, b), trigramSimMap(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("TrigramSim(%q, %q) = %v, map reference = %v", a, b, got, want)
			}
		}
	}
}

// TestTrigramsPackLossless: Trigrams(s) decodes back to exactly the
// distinct CharNGrams(s, 3), so packing is injective on every gram the
// tokenizer can produce — the three-rune grams and the short "^$" gram of an
// empty key alike.
func TestTrigramsPackLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := []string{"", "!!", "a", "\U0010FFFF", "ab", "abc"}
	for i := 0; i < 2000; i++ {
		vals = append(vals, randomSimString(rng))
	}
	for _, s := range vals {
		codes := Trigrams(s)
		if !slices.IsSorted(codes) || len(slices.Compact(slices.Clone(codes))) != len(codes) {
			t.Fatalf("Trigrams(%q) = %x, not sorted and distinct", s, codes)
		}
		var got []string
		for _, c := range codes {
			got = append(got, unpackGram(c))
		}
		want := CharNGrams(s, 3)
		slices.Sort(got)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Trigrams(%q) decodes to %q, CharNGrams gives %q", s, got, want)
		}
	}
	if got := Trigrams("!!"); len(got) != 1 || got[0]>>63 != 1 || unpackGram(got[0]) != "^$" {
		t.Errorf("Trigrams of an empty key = %x, want the flagged short gram ^$", got)
	}

	// Every code is distinct across grams: the flag bit keeps the short
	// gram apart from a trigram whose leading rune is NUL.
	seen := map[uint64]string{}
	alphabet := []rune{0, 1, '^', '$', 'a', 'z', 'é', '日', 0xFFFD, 0x10FFFF}
	grams := [][]rune{{'^', '$'}, {0, '^', '$'}, {'^'}, {}}
	for _, a := range alphabet {
		for _, b := range alphabet {
			for _, c := range alphabet {
				grams = append(grams, []rune{a, b, c})
			}
		}
	}
	for _, g := range grams {
		code := packGram(g)
		if prev, ok := seen[code]; ok && prev != string(g) {
			t.Fatalf("packGram(%q) = %x collides with %q", string(g), code, prev)
		}
		seen[code] = string(g)
		if unpackGram(code) != string(g) {
			t.Fatalf("packGram(%q) does not round-trip: %q", string(g), unpackGram(code))
		}
	}
}

func benchNamePairs() [][2]string {
	names := []string{"gochi fusion tapas", "gochi", "blue agave cantina",
		"blue agave cantina mexican restaurant", "red lantern noodle bar",
		"golden dragon grill", "golden orchid grill", "café de flore"}
	var pairs [][2]string
	for _, a := range names {
		for _, b := range names {
			pairs = append(pairs, [2]string{a, b})
		}
	}
	return pairs
}

func BenchmarkTrigramSim(b *testing.B) {
	pairs := benchNamePairs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		TrigramSim(p[0], p[1])
	}
}

func BenchmarkTrigramSimReference(b *testing.B) {
	pairs := benchNamePairs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		trigramSimMap(p[0], p[1])
	}
}
