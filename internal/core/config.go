package core

import (
	"conceptweb/internal/classify"
	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/webgraph"
)

// StandardConfig returns the local-domain configuration used across the
// experiments and examples: restaurant list/detail extraction with
// collective entity matching and review linking.
func StandardConfig(reg *lrec.Registry, cities, cuisines []string) Config {
	return Config{
		Registry: reg,
		Domains: []extract.Domain{
			extract.RestaurantDomain(cities, cuisines),
			extract.EventDomain(cities),
		},
		Matchers: map[string]*match.Matcher{
			"restaurant": match.NewMatcher(match.RestaurantComparators()),
		},
		LinkConcepts: []string{"restaurant"},
	}
}

// ScaleConfig extends StandardConfig with the hotel domain the streamed
// heavy-tail corpus exercises (pair it with webgen.RegisterScaleConcepts).
// Hotels get no collective matcher: hotel aggregators render names and phone
// digits consistently, so synthesized IDs already merge cross-site mentions;
// restaurants keep the full matcher.
func ScaleConfig(reg *lrec.Registry, cities, cuisines []string) Config {
	cfg := StandardConfig(reg, cities, cuisines)
	cfg.Domains = append(cfg.Domains, extract.HotelDomain(cities))
	return cfg
}

// ClassifierGate builds a Gate from a trained global classifier refined with
// each gated host's relational structure (§4.2's "filtering out only those
// pages that belong to a certain category and then doing further extraction
// on them"). Pages on hosts outside `hosts` pass ungated; pages on gated
// hosts are admitted to a concept's detail extraction only when their
// refined label equals conceptCat[concept]. Refinement uses only a site's
// own directory and link structure, so each gated host's link graph is
// built from that host's pages alone.
func ClassifierGate(nb *classify.NaiveBayes, conceptCat map[string]string,
	pages *webgraph.Store, hosts []string) func(string, *webgraph.Page) bool {

	gated := make(map[string]bool, len(hosts))
	labels := make(map[string]string)
	for _, h := range hosts {
		gated[h] = true
		var site []*webgraph.Page
		var pls []classify.PageLabel
		for _, u := range pages.HostPages(h) {
			p, err := pages.Get(u)
			if err != nil {
				continue
			}
			site = append(site, p)
			label, probs := nb.Predict(classify.Features(p))
			pls = append(pls, classify.PageLabel{URL: u, Label: label, Probs: probs})
		}
		graph := webgraph.BuildGraph(site)
		for u, pl := range classify.Refine(pls, graph, classify.DefaultRefineOptions()) {
			labels[u] = pl.Label
		}
	}
	return func(concept string, p *webgraph.Page) bool {
		if !gated[p.Host] {
			return true
		}
		want, constrained := conceptCat[concept]
		if !constrained {
			return true
		}
		return labels[p.URL] == want
	}
}
