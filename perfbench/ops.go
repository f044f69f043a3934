package main

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"conceptweb/internal/logsim"
	"conceptweb/internal/serving"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// The read operations of the serve workloads: the seven serving.Layer
// endpoints in the same proportions as internal/loadgen's session mix
// (search-heavy, then concept search and aggregation pages, then the
// recommendation and lookup endpoints).

// opMix mirrors internal/loadgen's per-operation endpoint mixture.
var opMix = []struct {
	endpoint string
	p        float64
}{
	{"search", 0.50},
	{"concepts", 0.15},
	{"aggregate", 0.15},
	{"alternatives", 0.08},
	{"record", 0.06},
	{"augmentations", 0.04},
	{"lineage", 0.02},
}

// endpoints lists opMix's endpoint names in order.
func endpoints() []string {
	out := make([]string, len(opMix))
	for i, m := range opMix {
		out[i] = m.endpoint
	}
	return out
}

// resultK is the k every ranked endpoint is asked for, as in loadgen.
const resultK = 8

// op is one read request.
type op struct {
	Endpoint string
	Arg      string // query for search/concepts, record ID otherwise
	// Rank is an id-addressed op's position in the record-ID list; the ID
	// it names is looked up in the list current when the op is issued.
	Rank int
}

func isQueryEndpoint(ep string) bool { return ep == "search" || ep == "concepts" }

// keyspace is the set of distinct request arguments: queries ranked by
// popularity (most frequent first) and record IDs in a seeded order.
type keyspace struct {
	queries []string
	ids     []string
}

// distinctKeys is how many distinct (endpoint, argument) pairs the mix can
// produce; the cacheable share of them is what has to fit the result cache.
func (k keyspace) distinctKeys() int {
	return 2*len(k.queries) + 5*len(k.ids)
}

// queriesFromLogs ranks the simulated users' distinct queries by how often
// they were issued (ties lexically), normalized the way the serving layer
// keys its cache.
func queriesFromLogs(w *webgen.World, users int) []string {
	cfg := logsim.DefaultConfig()
	cfg.Users = users
	logs := logsim.NewSimulator(w, cfg).Run()
	freq := map[string]int{}
	for _, ev := range logs.Queries {
		freq[textproc.NormalizeQuery(ev.Query)]++
	}
	qs := make([]string, 0, len(freq))
	for q := range freq {
		if q != "" {
			qs = append(qs, q)
		}
	}
	sort.Slice(qs, func(i, j int) bool {
		if freq[qs[i]] != freq[qs[j]] {
			return freq[qs[i]] > freq[qs[j]]
		}
		return qs[i] < qs[j]
	})
	return qs
}

// opSampler draws ops: an endpoint by the mix, then an argument either
// uniformly or by zipf rank within that endpoint's argument list.
type opSampler struct {
	rng    *rand.Rand
	keys   keyspace
	qZipf  *rand.Zipf
	idZipf *rand.Zipf
}

func newUniformSampler(seed int64, keys keyspace) *opSampler {
	return &opSampler{rng: rand.New(rand.NewSource(seed)), keys: keys}
}

// zipfS is the popularity skew of the churn workload's reads, the same
// exponent loadgen uses.
const zipfS = 1.1

func newZipfSampler(seed int64, keys keyspace) *opSampler {
	rng := rand.New(rand.NewSource(seed))
	return &opSampler{
		rng: rng, keys: keys,
		qZipf:  rand.NewZipf(rng, zipfS, 1, uint64(len(keys.queries)-1)),
		idZipf: rand.NewZipf(rng, zipfS, 1, uint64(len(keys.ids)-1)),
	}
}

func (s *opSampler) next() op {
	x := s.rng.Float64()
	ep := opMix[len(opMix)-1].endpoint
	acc := 0.0
	for _, m := range opMix {
		acc += m.p
		if x < acc {
			ep = m.endpoint
			break
		}
	}
	return s.arg(ep)
}

// arg draws an argument for an op on endpoint ep.
func (s *opSampler) arg(ep string) op {
	if isQueryEndpoint(ep) {
		if s.qZipf != nil {
			return op{Endpoint: ep, Arg: s.keys.queries[s.qZipf.Uint64()]}
		}
		return op{Endpoint: ep, Arg: s.keys.queries[s.rng.Intn(len(s.keys.queries))]}
	}
	r := 0
	if s.idZipf != nil {
		r = int(s.idZipf.Uint64())
	} else {
		r = s.rng.Intn(len(s.keys.ids))
	}
	return op{Endpoint: ep, Arg: s.keys.ids[r], Rank: r}
}

func (s *opSampler) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// takeMix draws n ops whose endpoint counts are the mix's shares of n,
// rounded, in seeded order. Where one endpoint costs a thousand times
// another (the build workload's uncached alternatives), how many of it a
// short sample happens to draw would otherwise move the sample's median.
func (s *opSampler) takeMix(n int) []op {
	eps := make([]string, 0, n)
	acc := 0.0
	for _, m := range opMix {
		lo := int(math.Round(acc * float64(n)))
		acc += m.p
		for k := int(math.Round(acc * float64(n))); lo < k; lo++ {
			eps = append(eps, m.endpoint)
		}
	}
	for len(eps) < n {
		eps = append(eps, opMix[0].endpoint)
	}
	s.rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
	out := make([]op, n)
	for i, ep := range eps {
		out[i] = s.arg(ep)
	}
	return out
}

// viaLayer runs o through the serving layer.
func (o op) viaLayer(ctx context.Context, l *serving.Layer) (any, error) {
	switch o.Endpoint {
	case "search":
		return l.Search(ctx, o.Arg, resultK)
	case "concepts":
		return l.ConceptSearch(ctx, o.Arg, resultK)
	case "aggregate":
		return l.Aggregate(ctx, o.Arg)
	case "alternatives":
		return l.Alternatives(ctx, o.Arg, resultK)
	case "augmentations":
		return l.Augmentations(ctx, o.Arg, resultK)
	case "record":
		return l.Record(ctx, o.Arg)
	default:
		return l.Lineage(ctx, o.Arg)
	}
}

// viaSystem runs o directly against the uncached system, with the query
// normalized as the serving layer normalizes it.
func (o op) viaSystem(sys *woc.System) (any, error) {
	switch o.Endpoint {
	case "search":
		return sys.Search(textproc.NormalizeQuery(o.Arg), resultK), nil
	case "concepts":
		return sys.ConceptSearch(textproc.NormalizeQuery(o.Arg), resultK), nil
	case "aggregate":
		return sys.Aggregate(o.Arg)
	case "alternatives":
		return sys.Alternatives(o.Arg, resultK)
	case "augmentations":
		return sys.Augmentations(o.Arg, resultK)
	case "record":
		return sys.Record(o.Arg)
	default:
		return sys.Lineage(o.Arg)
	}
}
