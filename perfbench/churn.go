package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"conceptweb/internal/webgen"
)

// The churn workload's writes: a fetcher the benchmark owns (passed to
// woc.Build, so System.Refresh re-fetches through it) serves generated pages
// with seeded phone-number changes layered on top, and a scheduler runs
// Refresh passes at fixed offsets while the reads go on.

// churnFetcher serves the generated world, except for pages the benchmark
// has rewritten.
type churnFetcher struct {
	base func(url string) (string, error)
	mu   sync.RWMutex
	over map[string]string
}

func newChurnFetcher(base func(string) (string, error)) *churnFetcher {
	return &churnFetcher{base: base, over: map[string]string{}}
}

func (f *churnFetcher) fetch(url string) (string, error) {
	f.mu.RLock()
	html, ok := f.over[url]
	f.mu.RUnlock()
	if ok {
		return html, nil
	}
	return f.base(url)
}

// phoneStyles renders a 10-digit phone in each format webgen uses.
func phoneStyles(digits string) []string {
	a, m, l := digits[0:3], digits[3:6], digits[6:10]
	return []string{
		a + "-" + m + "-" + l,
		"(" + a + ") " + m + "-" + l,
		a + "." + m + "." + l,
		a + " " + m + " " + l,
	}
}

func phoneDigits(s string) string {
	var b strings.Builder
	for _, c := range s {
		if c >= '0' && c <= '9' {
			b.WriteRune(c)
		}
	}
	return b.String()
}

// phoneChange is one injected mutation: a restaurant's phone number
// changes on every page that shows it — its homepage, its aggregator biz
// pages, and the listings and reviews that quote it — as when a business
// really changes its number. (Stale aggregators that still show an old
// number keep showing it.)
type phoneChange struct {
	Restaurant *webgen.Restaurant
	NewDigits  string
	Pages      []string // URLs whose bytes changed
}

// churnPlanner picks which restaurants change phone in each pass. Each
// restaurant changes at most once per run, so every change is a fresh one.
type churnPlanner struct {
	f       *churnFetcher
	rng     *rand.Rand
	order   []*webgen.Restaurant
	next    int
	pagesOf map[string][]*webgen.Page // restaurant ID -> pages about it
	used    map[string]bool           // phone digits in use
}

func newChurnPlanner(w *webgen.World, f *churnFetcher, seed int64) *churnPlanner {
	p := &churnPlanner{f: f, rng: rand.New(rand.NewSource(seed)),
		pagesOf: map[string][]*webgen.Page{}, used: map[string]bool{}}
	for _, pg := range w.Pages() {
		for _, id := range pg.Truth.EntityIDs {
			p.pagesOf[id] = append(p.pagesOf[id], pg)
		}
	}
	for _, r := range w.Restaurants {
		p.used[phoneDigits(r.Phone)] = true
		p.used[phoneDigits(r.OldPhone)] = true
		if r.Homepage != "" && len(phoneDigits(r.Phone)) == 10 {
			p.order = append(p.order, r)
		}
	}
	p.rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	return p
}

// change rewrites the next restaurant's phone on every page showing it.
func (p *churnPlanner) change() (phoneChange, error) {
	if p.next >= len(p.order) {
		return phoneChange{}, fmt.Errorf("churn: ran out of restaurants to change")
	}
	r := p.order[p.next]
	p.next++
	old := phoneDigits(r.Phone)
	var nd string
	for {
		nd = old[:6] + fmt.Sprintf("%04d", p.rng.Intn(10000))
		if !p.used[nd] {
			break
		}
	}
	p.used[nd] = true
	oldForms, newForms := phoneStyles(old), phoneStyles(nd)
	ch := phoneChange{Restaurant: r, NewDigits: nd}
	p.f.mu.Lock()
	defer p.f.mu.Unlock()
	for _, pg := range p.pagesOf[r.ID] {
		html, ok := p.f.over[pg.URL]
		if !ok {
			html = pg.HTML
		}
		out := html
		for i := range oldForms {
			out = strings.ReplaceAll(out, oldForms[i], newForms[i])
		}
		if out != html {
			p.f.over[pg.URL] = out
			ch.Pages = append(ch.Pages, pg.URL)
		}
	}
	if len(ch.Pages) == 0 {
		return ch, fmt.Errorf("churn: no page of %s shows its phone", r.ID)
	}
	return ch, nil
}

// passWindow is one Refresh pass on the wall clock.
type passWindow struct{ Start, End time.Time }

// overlapsAny reports whether [s, e] intersects any pass window.
func overlapsAny(s, e time.Time, ws []passWindow) bool {
	for _, w := range ws {
		if s.Before(w.End) && w.Start.Before(e) {
			return true
		}
	}
	return false
}
