package textproc

import (
	"cmp"
	"slices"
)

// String-similarity measures used by entity matching (§6). All measures
// return a score in [0, 1] with 1 meaning identical.

// Levenshtein returns the edit distance between a and b (insertions,
// deletions, substitutions, unit cost), computed over bytes. Inputs are
// expected to be normalized first.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSim converts edit distance into a [0,1] similarity:
// 1 - dist/max(len). Empty-vs-empty is 1.
func LevenshteinSim(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	d := Levenshtein(a, b)
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	return 1 - float64(d)/float64(m)
}

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || a[i] != b[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler boosts the Jaro similarity for strings sharing a common prefix
// (up to 4 chars), the variant standard in record-linkage systems.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	if j < 0.7 {
		return j
	}
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Jaccard returns the Jaccard coefficient |A∩B| / |A∪B| of two token sets.
func Jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardTokens is Jaccard over the distinct tokens of two strings.
func JaccardTokens(a, b string) float64 {
	return Jaccard(TokenSet(Tokenize(a)), TokenSet(Tokenize(b)))
}

// Overlap returns |A∩B| for two sorted, duplicate-free slices, by one
// merge walk.
func Overlap[T cmp.Ordered](a, b []T) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Dice returns the Sørensen–Dice coefficient 2|A∩B| / (|A|+|B|) of two
// sorted, duplicate-free sets such as Trigrams returns. Two empty sets
// score 1.
func Dice(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	return 2 * float64(Overlap(a, b)) / float64(len(a)+len(b))
}

// Trigrams returns the distinct character trigrams of s — the set
// CharNGrams(s, 3) yields — packed one gram per uint64 and sorted
// ascending, the form Dice intersects. A trigram packs its three runes
// 21 bits each, r0<<42 | r1<<21 | r2; every rune is at most 0x10FFFF, which
// fits in 21 bits, so no two trigrams share a code. The one shorter gram
// CharNGrams emits, the whole padded string "^$" of a value with an empty
// key, packs its runes the same way, adds its rune count at bit 42, and
// sets bit 63, which no trigram sets. Callers that compare one value many
// times compute its Trigrams once.
func Trigrams(s string) []uint64 {
	rs := []rune("^" + NormalizeKey(s) + "$")
	if len(rs) < 3 {
		return []uint64{packGram(rs)}
	}
	out := make([]uint64, 0, len(rs)-2)
	for i := 0; i+3 <= len(rs); i++ {
		out = append(out, packGram(rs[i:i+3]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// packGram packs a gram of at most three runes into a uint64; see Trigrams.
func packGram(g []rune) uint64 {
	var code uint64
	for _, r := range g {
		code = code<<21 | uint64(r)
	}
	if len(g) < 3 {
		code |= 1<<63 | uint64(len(g))<<42
	}
	return code
}

// TrigramSim is Dice similarity over character trigrams — robust to small
// edits and word-order changes, used for fuzzy name comparison.
func TrigramSim(a, b string) float64 {
	return Dice(Trigrams(a), Trigrams(b))
}
