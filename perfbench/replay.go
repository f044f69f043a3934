package main

import (
	"fmt"
	"sort"
	"time"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/search"
	"conceptweb/internal/session"
	"conceptweb/internal/textproc"
	"conceptweb/woc"
)

// Per-layer query cost, measured from outside: a workload's recorded op
// stream is replayed by one caller through each nested public entry point
// (woc.System.X, then search.Engine.X, then the parser, trigger, indexes,
// recommender and store beneath it), each on identical inputs. A layer's
// self time is its outer entry's time minus the inner entry's time.

// queryStack is a built world's query side opened at every public layer.
type queryStack struct {
	woc    *core.WebOfConcepts
	engine *search.Engine
	rec    *session.Recommender
	sys    *woc.System // the facade over an identical build; nil if none
}

func newQueryStack(w *core.WebOfConcepts, cities, cuisines []string, sys *woc.System) *queryStack {
	eng := search.NewEngine(w, search.NewParser(cities, cuisines))
	return &queryStack{woc: w, engine: eng, rec: session.NewTransitions(eng).Rec, sys: sys}
}

// do runs o against the stack's engine, recommender and store, the same
// calls woc.System makes beneath its lock, and checks an id lookup returned
// the record it named.
func (qs *queryStack) do(o op) error {
	var err error
	switch o.Endpoint {
	case "search":
		qs.engine.Search(textproc.NormalizeQuery(o.Arg), resultK)
	case "concepts":
		qs.engine.ConceptSearch(textproc.NormalizeQuery(o.Arg), nil, resultK)
	case "aggregate":
		_, err = qs.engine.Aggregate(o.Arg)
	case "alternatives":
		_, err = qs.rec.Alternatives(o.Arg, resultK)
	case "augmentations":
		_, err = qs.rec.Augmentations(o.Arg, resultK)
	case "record":
		var r *lrec.Record
		if r, err = qs.woc.Records.Get(o.Arg); err == nil && r.ID != o.Arg {
			err = fmt.Errorf("got record %s for %s", r.ID, o.Arg)
		}
	default:
		_, err = qs.woc.Lineage(o.Arg)
	}
	if err != nil {
		return fmt.Errorf("%s %q: %w", o.Endpoint, o.Arg, err)
	}
	return nil
}

// replayQueries runs ops through every layer and records the p50 of each
// layer's calls (microseconds for the cheap layers, milliseconds for the
// composite ones) plus the facade's self time.
func replayQueries(qs *queryStack, ops []op, res *result) {
	samples := map[string][]float64{}
	var facadeSelf []float64
	timeIt := func(name string, fn func()) time.Duration {
		t := time.Now()
		fn()
		d := time.Since(t)
		samples[name] = append(samples[name], float64(d))
		return d
	}
	for _, o := range ops {
		switch o.Endpoint {
		case "search", "concepts":
			q := textproc.NormalizeQuery(o.Arg)
			var parsed search.Parsed
			timeIt("search.parse_us", func() { parsed = qs.engine.Parser.Parse(q) })
			timeIt("search.trigger_us", func() { qs.engine.Trigger(parsed) })
			timeIt("index.doc_search_us", func() { qs.woc.DocIndex.Search(q, resultK) })
			timeIt("index.rec_search_us", func() { qs.woc.RecIndex.Search(q, resultK) })
			if o.Endpoint == "concepts" {
				timeIt("search.concept_search_ms", func() { qs.engine.ConceptSearch(q, nil, resultK) })
				continue
			}
			inner := timeIt("search.search_ms", func() { qs.engine.Search(q, resultK) })
			if qs.sys != nil {
				outer := timeIt("woc.search_ms", func() { qs.sys.Search(q, resultK) })
				facadeSelf = append(facadeSelf, float64(outer-inner))
			}
		case "aggregate":
			timeIt("search.aggregate_ms", func() { qs.engine.Aggregate(o.Arg) })
		case "alternatives":
			timeIt("session.alternatives_ms", func() { qs.rec.Alternatives(o.Arg, resultK) })
		case "augmentations":
			timeIt("session.augmentations_ms", func() { qs.rec.Augmentations(o.Arg, resultK) })
		}
		if !isQueryEndpoint(o.Endpoint) {
			// The store point lookup under every id-addressed endpoint.
			timeIt("lrec.get_us", func() { qs.woc.Records.Get(o.Arg) })
		}
	}
	for name, xs := range samples {
		unit, scale := "us", float64(time.Microsecond)
		if name[len(name)-3:] == "_ms" {
			unit, scale = "ms", float64(time.Millisecond)
		}
		sort.Float64s(xs)
		res.put(name, percentile(xs, 50)/scale, unit)
	}
	if len(facadeSelf) > 0 {
		res.put("woc.facade_self_us", median(facadeSelf)/float64(time.Microsecond), "us")
	}
}
