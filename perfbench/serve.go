package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/serving"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// The serve workloads: woc.Build of a default-profile world behind
// serving.New with default options, driven by the open-loop generator over
// the loadgen endpoint mix (then, for uniform, a closed loop for capacity).
//
//   - serve-uniform-6k: 600 restaurants (6350 pages); uniform reads over
//     logsim's 4000-user query vocabulary plus every record ID — more
//     distinct cache keys than the 4096-entry result cache holds, so most
//     reads reach compute.
//   - serve-churn-2k: the 2011-page demo world wocserve serves; zipf reads
//     whose keys fit the cache, beside System.Refresh passes on a fixed
//     schedule that change a seeded few restaurants' phone numbers.

type serveParams struct {
	restaurants int
	users       int // logsim users generating the query vocabulary
	zipf        bool
	churn       bool
	setups      int // set-ups per run; setup_s is their median
	// prime is how many reads fill the result cache, untimed, before the
	// measured phases, so they see the cache's steady state.
	prime int
	// capacity adds a closed-loop phase after the open loop.
	capacity bool
}

var (
	uniformParams = serveParams{restaurants: 600, users: 4000, setups: 3, prime: 6000, capacity: true}
	churnParams   = serveParams{restaurants: 120, users: 200, zipf: true, churn: true, setups: 3}
)

// readRate is the offered rate, in requests per second, of every workload's
// open-loop read phase. It is the rate serve-uniform-6k was sized at (p99
// 15-18 ms over 60 s runs with two callers on a 2-vCPU host), about a
// tenth of that workload's closed-loop capacity there, so latency is service
// time plus the waits the workload itself causes (refresh passes, GC), not a
// backlog of the generator's making. One rate for all workloads keeps their
// read latencies comparable.
const readRate = 200.0

const (
	warmupOps   = 300
	serveCapDur = 3 * time.Second // closed-loop phase after the open loop
	checkOps    = 200
	churnPeriod = 3 * time.Second // one Refresh pass per period
	// churnPassURLs pages are re-checked per pass, churnChanges of whose
	// restaurants changed phone since the last pass.
	churnPassURLs = 64
	churnChanges  = 2
	// minPhoneShownShare is the least share of phone changes that
	// Layer.Record must show as the record's phone after the pass. Entity
	// resolution occasionally merges a changed restaurant into a similarly
	// named neighbour whose phone outvotes the new one (a fresh build of the
	// changed pages does the same), so a run shows a few misses: over 44
	// runs of 30 to 36 changes each, the lowest share was 27/30 (0.90). At
	// 0.8 a run may miss 6 of 30; a refresh that left records stale misses
	// all.
	minPhoneShownShare = 0.8
	// churnSoloPasses run back to back after the reads; write_s is their
	// median.
	churnSoloPasses = 10
)

// serveWorld is one set-up serve workload.
type serveWorld struct {
	w      *webgen.World
	sys    *woc.System
	layer  *serving.Layer
	keys   keyspace
	snap   atomic.Pointer[idSnapshot]
	fetch  *churnFetcher
	buildS float64
}

func (p serveParams) sampler(seed int64, keys keyspace) *opSampler {
	if p.zipf {
		return newZipfSampler(seed, keys)
	}
	return newUniformSampler(seed, keys)
}

func setupServe(p serveParams, seed int64) (*serveWorld, error) {
	wcfg := webgen.DefaultConfig()
	wcfg.Restaurants = p.restaurants
	w := webgen.Generate(wcfg)
	env := &serveWorld{w: w}
	fetch := w.Fetch
	if p.churn {
		env.fetch = newChurnFetcher(w.Fetch)
		fetch = env.fetch.fetch
	}
	t := time.Now()
	sys, err := woc.Build(fetch, w.SeedURLs(), woc.WithLocalDomain(w.Cities(), webgen.Cuisines()))
	if err != nil {
		return nil, err
	}
	env.buildS = since(t)
	env.sys = sys
	env.layer = serving.New(sys, serving.Options{Metrics: sys.Metrics()})
	env.keys = keyspace{queries: queriesFromLogs(w, p.users), ids: pageRecordIDs(sys, seed)}
	env.publishIDs(seed)
	ctx := context.Background()
	for _, o := range p.sampler(seed+1, env.keys).take(warmupOps) {
		if _, err := env.read(ctx, o); err != nil {
			return nil, fmt.Errorf("warm-up %s %q: %w", o.Endpoint, o.Arg, err)
		}
	}
	return env, nil
}

// pageRecordIDs lists every record some page is about, ordered by a seeded
// hash of the ID: the order (the zipf popularity ranking of the churn
// workload) is stable across refresh passes that add or retire records.
func pageRecordIDs(sys *woc.System, seed int64) []string {
	set := map[string]bool{}
	for _, u := range sys.PageURLs() {
		for _, id := range sys.RecordsOn(u) {
			set[id] = true
		}
	}
	ids := make([]string, 0, len(set))
	key := map[string]uint64{}
	for id := range set {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", seed, id)
		key[id] = h.Sum64()
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if key[ids[i]] != key[ids[j]] {
			return key[ids[i]] < key[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// idSnapshot is the record-ID list as of one data generation.
type idSnapshot struct {
	epoch uint64
	ids   []string
}

// publishIDs records the current record-ID list for id-addressed reads.
func (env *serveWorld) publishIDs(seed int64) {
	env.snap.Store(&idSnapshot{epoch: env.sys.Epoch(), ids: pageRecordIDs(env.sys, seed)})
}

// read runs o through the serving layer, naming the record its rank
// points at in the current ID list. Refresh retires and rebuilds the
// records of every page it finds changed, and a rebuilt record can return
// under a new ID; so an id read that misses while a pass has moved the
// data on waits for the post-pass ID list and retries once, as a client
// holding a stale ID would. The retry counts in the read's latency; a miss
// with no pass behind it is a failure.
func (env *serveWorld) read(ctx context.Context, o op) (any, error) {
	if isQueryEndpoint(o.Endpoint) {
		return o.viaLayer(ctx, env.layer)
	}
	snap := env.snap.Load()
	o.Arg = snap.ids[o.Rank%len(snap.ids)]
	v, err := o.viaLayer(ctx, env.layer)
	if !errors.Is(err, woc.ErrNotFound) || env.sys.Epoch() == snap.epoch {
		return v, err
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if s := env.snap.Load(); s.epoch == env.sys.Epoch() {
			o.Arg = s.ids[o.Rank%len(s.ids)]
			return o.viaLayer(ctx, env.layer)
		}
	}
	return v, err
}

func runServeUniform(cfg config, res *result) error { return runServe(cfg, res, uniformParams) }
func runServeChurn(cfg config, res *result) error   { return runServe(cfg, res, churnParams) }

func runServe(cfg config, res *result, p serveParams) error {
	var env *serveWorld
	var setups, builds []float64
	for i := 0; i < p.setups; i++ {
		if env != nil {
			env.sys.Close()
			env = nil
			runtime.GC()
		}
		t := time.Now()
		e, err := setupServe(p, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, since(t))
		builds = append(builds, e.buildS)
		env = e
	}
	defer env.sys.Close()
	res.put("setup_s", median(setups), "s")
	res.put("build_s", median(builds), "s")
	if !p.churn {
		// The uniform workload's write is its world build.
		res.put("write_s", median(builds), "s")
	}
	res.put("serving.distinct_keys", float64(env.keys.distinctKeys()), "count")

	if p.prime > 0 {
		primeOps := p.sampler(cfg.seed+4, env.keys).take(p.prime)
		var failed atomic.Int64
		runEach(cfg.callers, len(primeOps), func(i int) {
			if _, err := env.read(context.Background(), primeOps[i]); err != nil {
				failed.Add(1)
			}
		})
		if n := failed.Load(); n > 0 {
			res.problem("%d of %d priming reads failed", n, len(primeOps))
		}
	}

	dur := time.Duration(cfg.seconds) * time.Second
	rng := rand.New(rand.NewSource(cfg.seed))
	due := poissonSchedule(rng, readRate, dur)
	ops := p.sampler(cfg.seed+2, env.keys).take(len(due))
	var ref *refresher
	if p.churn {
		ref = &refresher{env: env, pl: newChurnPlanner(env.w, env.fetch, cfg.seed),
			cohort: env.sys.PageURLs(), seed: cfg.seed, res: res}
	}

	// One open-loop phase. A traced run traces every other request
	// (per-request serving.Trace via serving.WithTrace), so the traced and
	// untraced halves share the schedule, the cache and the heap, and the
	// gap between their medians is the tracing overhead.
	ph := &servePhase{traces: make([]*serving.Trace, len(ops))}
	var hw *heapWatch
	var before rtSnap
	runtime.GC() // set-up and priming garbage is not the reads' cost
	if cfg.trace {
		hw = watchHeap(20 * time.Millisecond)
		before = readRuntime()
	}
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	if ref != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref.during(&ph.passes, start, dur)
		}()
	}
	ph.results = runOpenLoop(start, due, cfg.callers, func(i int) error {
		c := ctx
		if cfg.trace && i%2 == 1 {
			tr := serving.NewTrace(ops[i].Endpoint)
			ph.traces[i] = tr
			c = serving.WithTrace(ctx, tr)
		}
		_, err := env.read(c, ops[i])
		return err
	})
	wg.Wait()
	putOpenLoop(summarize(ph.results), 99, res)
	if cfg.trace {
		whole := costBetween(before, readRuntime())
		res.put("runtime.heap_peak_mib", hw.end(), "MiB")
		res.put("runtime.gc_cpu_share", whole.GCCPUShare, "share")
		var plain, traced []opResult
		for i, r := range ph.results {
			if i%2 == 1 {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		res.put("trace.overhead_share", percentile(summarize(traced).LatencyMs, 50)/percentile(summarize(plain).LatencyMs, 50)-1, "share")
		ph.putServingLayers(res)
	}
	if ref != nil {
		// Back-to-back passes with no reads beside them: the refresh cost
		// itself, over enough passes for a steady median.
		var solo passLog
		for i := 0; i < churnSoloPasses && ref.pass(&solo); i++ {
		}
		putChurn(ph, &solo, cfg.trace, res)
	}

	if p.capacity {
		capOps := make([][]op, cfg.callers)
		for c := range capOps {
			capOps[c] = p.sampler(cfg.seed+10+int64(c), env.keys).take(4096)
		}
		rates, n, failed := runClosedLoop(cfg.callers, serveCapDur, func(c, i int) error {
			_, err := env.read(context.Background(), capOps[c][i%len(capOps[c])])
			return err
		})
		putCapacity(rates, n, failed, res)
	}

	checkServing(env, p.sampler(cfg.seed+3, env.keys).take(checkOps), res)
	if cfg.trace {
		return traceServeBuild(cfg, env, ops, res)
	}
	return nil
}

// checkServing compares serving-layer answers with the uncached system's on
// a seeded sample: the cache must never change an answer.
func checkServing(env *serveWorld, sample []op, res *result) {
	ctx := context.Background()
	ids := env.snap.Load().ids
	for _, o := range sample {
		if !isQueryEndpoint(o.Endpoint) {
			o.Arg = ids[o.Rank%len(ids)]
		}
		got, gerr := o.viaLayer(ctx, env.layer)
		want, werr := o.viaSystem(env.sys)
		if (gerr == nil) != (werr == nil) || !sameAnswer(reflect.ValueOf(got), reflect.ValueOf(want)) {
			res.problem("%s %q: serving layer answer differs from the system's:\n  %+v\n  %+v", o.Endpoint, o.Arg, got, want)
		}
	}
}

// floatTolerance is the relative difference two float fields of equal
// answers may show. lrec.Record.Confidence sums over a map, so the same
// record yields values a few ulps apart from call to call; that is
// summation order, not a stale or wrong answer.
const floatTolerance = 1e-12

// sameAnswer is reflect.DeepEqual, except that floats compare within
// floatTolerance.
func sameAnswer(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.Abs(x-y) <= floatTolerance*math.Max(math.Abs(x), math.Abs(y))
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameAnswer(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameAnswer(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !sameAnswer(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameAnswer(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// servePhase holds one open-loop phase's per-request traces and, for
// churn, its refresh passes.
type servePhase struct {
	results []opResult
	traces  []*serving.Trace
	passes  passLog
}

// passLog records Refresh passes.
type passLog struct {
	windows []passWindow
	ms      []float64
	stats   []woc.RefreshStats
	// changes counts phone changes checked; shown those whose record shows
	// the new number as its phone.
	changes, shown int
}

// passesIn is how many Refresh passes a phase of length dur runs.
func passesIn(dur time.Duration) int { return int(dur / churnPeriod) }

// refresher runs the churn workload's Refresh passes, each over
// churnPassURLs pages: every page changed since the last pass, then the
// next pages of a cycle through the corpus.
type refresher struct {
	env    *serveWorld
	pl     *churnPlanner
	cohort []string
	cursor int
	seed   int64
	res    *result
}

// during runs a pass at the middle of every churnPeriod of a phase.
func (r *refresher) during(log *passLog, start time.Time, dur time.Duration) {
	for k := 0; k < passesIn(dur); k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k)*churnPeriod + churnPeriod/2)))
		if !r.pass(log) {
			return
		}
	}
}

// pass changes churnChanges restaurants' phones, runs one Refresh, checks
// its outcome and records it; it returns false if no pass could run.
func (r *refresher) pass(log *passLog) bool {
	var changes []phoneChange
	urls := []string{}
	inPass := map[string]bool{}
	for j := 0; j < churnChanges; j++ {
		ch, err := r.pl.change()
		if err != nil {
			r.res.problem("%v", err)
			return false
		}
		changes = append(changes, ch)
		for _, u := range ch.Pages {
			if !inPass[u] {
				inPass[u] = true
				urls = append(urls, u)
			}
		}
	}
	changed := len(urls)
	for len(urls) < churnPassURLs {
		u := r.cohort[r.cursor%len(r.cohort)]
		r.cursor++
		if !inPass[u] {
			inPass[u] = true
			urls = append(urls, u)
		}
	}
	t0 := time.Now()
	st, err := r.env.sys.Refresh(urls)
	t1 := time.Now()
	if err != nil {
		r.res.problem("refresh pass: %v", err)
		return false
	}
	r.env.publishIDs(r.seed)
	log.windows = append(log.windows, passWindow{t0, t1})
	log.ms = append(log.ms, ms(t1.Sub(t0)))
	log.stats = append(log.stats, st)
	if st.PagesChanged != changed {
		r.res.problem("refresh pass: %d pages changed, %d mutations injected", st.PagesChanged, changed)
	}
	for _, ch := range changes {
		log.changes++
		if checkPhoneVisible(r.env, ch, r.res) {
			log.shown++
		}
	}
	return true
}

// checkPhoneVisible asserts that after a pass the changed restaurant's new
// phone number reached the store: some record of the changed pages lists
// it in its lineage, read through the serving layer. It returns whether
// Layer.Record also shows it as the record's phone, which putChurn requires
// of at least minPhoneShownShare of the changes (see there why not all).
func checkPhoneVisible(env *serveWorld, ch phoneChange, res *result) (shown bool) {
	ctx := context.Background()
	inLineage := false
	for _, u := range ch.Pages {
		for _, id := range env.sys.RecordsOn(u) {
			if rec, err := env.layer.Record(ctx, id); err == nil && phoneDigits(rec.Attrs["phone"]) == ch.NewDigits {
				shown = true
			}
			lines, _ := env.layer.Lineage(ctx, id)
			for _, l := range lines {
				if v, ok := strings.CutPrefix(l, "phone="); ok {
					v, _, _ = strings.Cut(v, " <- ")
					inLineage = inLineage || phoneDigits(v) == ch.NewDigits
				}
			}
		}
	}
	if !inLineage {
		res.problem("after refresh, no record of %s's pages has phone %s", ch.Restaurant.ID, ch.NewDigits)
	}
	return shown
}

// putChurn records the refresh figures: write_s, the churn workload's
// write cost, is the median of the back-to-back passes (solo); the passes
// beside the reads give refresh_p50_ms and the blocked share.
func putChurn(ph *servePhase, solo *passLog, trace bool, res *result) {
	loop := &ph.passes
	if len(loop.ms) == 0 || len(solo.ms) == 0 {
		res.problem("no refresh pass ran")
		return
	}
	shown := float64(loop.shown+solo.shown) / float64(loop.changes+solo.changes)
	res.put("refresh.phone_shown_share", shown, "share")
	if shown < minPhoneShownShare {
		res.problem("after refresh, Layer.Record showed the new phone for %d of %d changes (share %.3f < %.2f)",
			loop.shown+solo.shown, loop.changes+solo.changes, shown, minPhoneShownShare)
	}
	res.put("refresh_p50_ms", median(loop.ms), "ms")
	if !trace {
		res.put("write_s", median(solo.ms)/1000, "s")
		return
	}
	res.put("core.refresh_ms", median(solo.ms), "ms")
	var changed, superseded, relinked []float64
	for _, st := range solo.stats {
		changed = append(changed, float64(st.PagesChanged))
		superseded = append(superseded, float64(st.RecordsSuperseded))
		relinked = append(relinked, float64(st.PagesRelinked))
	}
	res.put("refresh.pages_changed", median(changed), "count")
	res.put("refresh.records_superseded", median(superseded), "count")
	res.put("refresh.pages_relinked", median(relinked), "count")
	// A read was blocked by a pass if the pass overlapped its life from due
	// time to completion: requests due during a pass queue behind the
	// callers the pass holds up.
	blocked := 0
	for _, r := range ph.results {
		if overlapsAny(r.Due, r.End, loop.windows) {
			blocked++
		}
	}
	res.put("serving.reads_blocked_share", float64(blocked)/float64(len(ph.results)), "share")
}

// putServingLayers derives the serving-layer figures from the phase's
// per-request traces. Record and lineage are uncached and untimed inside
// the layer, so their compute is the call minus its admission wait.
func (ph *servePhase) putServingLayers(res *result) {
	var cacheable, hits, coalesced int
	var admit []float64
	compute := map[string][]float64{}
	for i, tr := range ph.traces {
		if tr == nil {
			continue
		}
		admit = append(admit, ms(tr.AdmissionWait))
		switch tr.Disposition {
		case serving.DispositionNone:
			r := ph.results[i]
			compute[tr.Endpoint] = append(compute[tr.Endpoint], ms(r.End.Sub(r.Start)-tr.AdmissionWait))
			continue
		case serving.DispositionHit:
			hits++
		case serving.DispositionCoalesced:
			coalesced++
		}
		cacheable++
		if tr.Compute > 0 {
			compute[tr.Endpoint] = append(compute[tr.Endpoint], ms(tr.Compute))
		}
	}
	if cacheable > 0 {
		res.put("serving.hit_ratio", float64(hits)/float64(cacheable), "share")
		res.put("serving.coalesced_ratio", float64(coalesced)/float64(cacheable), "share")
	}
	res.put("serving.admission_wait_p99_ms", percentile(sortedCopy(admit), 99), "ms")
	for _, ep := range endpoints() {
		xs := sortedCopy(compute[ep])
		if len(xs) == 0 {
			continue
		}
		res.put("serving.compute."+ep+"_p50_ms", percentile(xs, 50), "ms")
		res.put("serving.compute."+ep+"_p99_ms", percentile(xs, 99), "ms")
	}
}

// worldSource streams a generated world's pages, so the traced run can
// build it through core.Builder.BuildStream, whose Progress hook marks
// stage boundaries.
type worldSource struct{ w *webgen.World }

func (s worldSource) StreamPages(emit func(url, html string) error) error {
	for _, p := range s.w.Pages() {
		if err := emit(p.URL, p.HTML); err != nil {
			return err
		}
	}
	return nil
}

// traceServeBuild measures the build-side layers of a serve workload's
// world — rebuilt through BuildStream with an in-memory page store, which
// yields the same store as woc.Build's crawl — and replays the phase's op
// stream through every query layer, against the facade for self time.
func traceServeBuild(cfg config, env *serveWorld, ops []op, res *result) error {
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	ccfg := core.StandardConfig(reg, env.w.Cities(), webgen.Cuisines())
	meter := newStageMeter()
	ccfg.Progress = meter.progress
	src := &timedSource{src: worldSource{env.w}, planned: len(env.w.Pages()),
		onStart: func() { meter.progress("ingest", 0, 0) },
		onEnd:   func() { meter.progress("extract", 0, 0) }}
	b := &core.Builder{Fetcher: env.w, Cfg: ccfg}
	w, stats, err := b.BuildStream(src)
	meter.finish()
	if err != nil {
		return err
	}
	defer w.Close()
	t := time.Now()
	w.Reconcile("restaurant", core.PreferSupport)
	rec := time.Since(t)
	b.EnrichMenus(w)
	if got := env.sys.Stats().RecordsStored; got != stats.RecordsStored {
		res.problem("traced rebuild stored %d records, woc.Build %d", stats.RecordsStored, got)
	}
	putBuildLayers(&builtWorld{woc: w, stats: stats, src: src, reconcile: rec}, meter, res)
	putPageGets(w.Pages, rand.New(rand.NewSource(cfg.seed+5)), res)
	n := replayOps
	if n > len(ops) {
		n = len(ops)
	}
	replayQueries(newQueryStack(w, env.w.Cities(), webgen.Cuisines(), env.sys), ops[:n], res)
	return nil
}
