package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// build-heavytail-20k: core.Builder.BuildStream then Reconcile("restaurant")
// over webgen.HeavyTailConfig(20000) — the heavy-tail site-size world of
// the 20k point of the committed heavy-tail scaling curve — with a disk page
// store in a scratch directory.

const (
	buildPages     = 20000
	buildWorldSeed = 1  // the scaling curve's world; --seed drives the reads
	buildSetups    = 15 // plan-and-open set-ups per run; their median counts
	// buildReadRate is the offered rate of the open-loop read phase after
	// the build, which lasts --seconds. Every read there computes (there is
	// no result cache) over a world three times the serve worlds' size,
	// where the recommender's alternatives take ~18 ms each. At the serve
	// workloads' readRate a third of the requests queued behind others, at
	// half of it one in seven, at a quarter under one in twenty: the rate at
	// which reads rarely queue, as on serve-uniform-6k.
	buildReadRate = readRate / 4
	// buildTailP is the tail percentile reported for the build's reads:
	// the highest whose minBeyondTail samples the phase's ~750 requests
	// (at run_seconds 15) hold.
	buildTailP = 98
	replayOps  = 400
)

// buildPins are the exact outputs of the 20k world at buildWorldSeed: any
// change to them is a change to what the program computes.
var buildPins = struct {
	candidates, records, linked int
	fingerprint                 string
}{31700, 9757, 10497, "5f2ce2e9da407df2676a517d73dae52e10d4114bca9d1302d9918675a95a1a32"}

// timedSource wraps a page source and splits its wall time into time spent
// generating pages (outside the emit callback) and time the pipeline spent
// taking them in (inside it), so generation can be subtracted from the
// build: the pages are the benchmark's input, not the program's work.
type timedSource struct {
	src       core.PageSource
	planned   int
	onStart   func()
	onEnd     func()
	total     time.Duration
	inEmit    time.Duration
	htmlBytes int64
}

func (t *timedSource) PlannedPages() int { return t.planned }

func (t *timedSource) StreamPages(emit func(url, html string) error) error {
	if t.onStart != nil {
		t.onStart()
	}
	start := time.Now()
	err := t.src.StreamPages(func(url, html string) error {
		s := time.Now()
		e := emit(url, html)
		t.inEmit += time.Since(s)
		t.htmlBytes += int64(len(html))
		return e
	})
	t.total = time.Since(start)
	if t.onEnd != nil {
		t.onEnd()
	}
	return err
}

func (t *timedSource) genTime() time.Duration { return t.total - t.inEmit }

// buildEnv is one set-up 20k build: planned world, registry, config with a
// fresh disk page store.
type buildEnv struct {
	world *webgen.StreamWorld
	cfg   core.Config
	dir   string
}

func setupBuild(dir string) (*buildEnv, error) {
	scfg := webgen.HeavyTailConfig(buildPages)
	scfg.Seed = buildWorldSeed
	w := webgen.NewStreamWorld(scfg)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := core.ScaleConfig(reg, w.Cities(), webgen.Cuisines())
	ps, err := webgraph.OpenDiskStore(dir, webgraph.DiskOptions{})
	if err != nil {
		return nil, err
	}
	cfg.PageStore = ps
	return &buildEnv{world: w, cfg: cfg, dir: dir}, nil
}

// builtWorld is the outcome of one timed build.
type builtWorld struct {
	woc       *core.WebOfConcepts
	stats     *core.BuildStats
	src       *timedSource
	buildS    float64 // BuildStream + Reconcile, page generation excluded
	reconcile time.Duration
}

func (e *buildEnv) build(meter *stageMeter) (*builtWorld, error) {
	src := &timedSource{src: e.world, planned: e.world.PlannedPages()}
	if meter != nil {
		e.cfg.Progress = meter.progress
		src.onStart = func() { meter.progress("ingest", 0, 0) }
		src.onEnd = func() { meter.progress("extract", 0, 0) }
	}
	b := &core.Builder{Fetcher: e.world, Cfg: e.cfg}
	t := time.Now()
	w, stats, err := b.BuildStream(src)
	wall := time.Since(t)
	if meter != nil {
		meter.finish()
	}
	if err != nil {
		return nil, err
	}
	t = time.Now()
	w.Reconcile("restaurant", core.PreferSupport)
	rec := time.Since(t)
	return &builtWorld{woc: w, stats: stats, src: src, reconcile: rec,
		buildS: (wall - src.genTime() + rec).Seconds()}, nil
}

// close releases the built world's record and page stores.
func (bw *builtWorld) close() {
	bw.woc.Close()
	bw.woc.Pages.Close()
}

// storeFingerprint is sha256 over every record's encoding in ID order.
func storeFingerprint(s *lrec.Store) string {
	h := sha256.New()
	s.Scan(func(r *lrec.Record) bool {
		h.Write(lrec.EncodeRecord(r))
		return true
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

func checkBuild(bw *builtWorld, res *result) {
	st := bw.stats
	if st.Candidates != buildPins.candidates || st.RecordsStored != buildPins.records || st.PagesLinked != buildPins.linked {
		res.problem("build counts: candidates %d records %d linked %d, want %d %d %d",
			st.Candidates, st.RecordsStored, st.PagesLinked,
			buildPins.candidates, buildPins.records, buildPins.linked)
	}
	if fp := storeFingerprint(bw.woc.Records); fp != buildPins.fingerprint {
		res.problem("record store fingerprint %s, want %s", fp, buildPins.fingerprint)
	}
}

// runBuild builds the 20k world once, checks it, then reads it: warm-up
// reads (set-up) and an open-loop phase of the loadgen endpoint mix over the
// built world's record names and IDs, through the search engine,
// recommender and stores the build produced. A traced run traces the same
// build and, after the reads, replays the op stream layer by layer.
func runBuild(cfg config, res *result) error {
	// Set-up before the build is planning the world and opening an empty
	// disk page store: a few milliseconds, so it is repeated and the median
	// kept. Page generation is the benchmark's input and is excluded from
	// both set-up and build (subtracted through timedSource).
	var env *buildEnv
	var setups []float64
	for i := 0; i < buildSetups; i++ {
		if env != nil {
			env.cfg.PageStore.Close()
		}
		t := time.Now()
		e, err := setupBuild(filepath.Join(cfg.tmpDir, fmt.Sprintf("pages-%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, since(t))
		env = e
	}

	var meter *stageMeter
	var hw *heapWatch
	var before rtSnap
	if cfg.trace {
		meter = newStageMeter()
		hw = watchHeap(20 * time.Millisecond)
		before = readRuntime()
	}
	bw, err := env.build(meter)
	if cfg.trace {
		whole := costBetween(before, readRuntime())
		res.put("runtime.heap_peak_mib", hw.end(), "MiB")
		res.put("runtime.gc_cpu_share", whole.GCCPUShare, "share")
		if err == nil {
			// The build cannot run traced and untraced at once, and two
			// builds one after another differ by host noise far more than
			// by the tracing; so the overhead is the tracing code's own
			// time — the progress hook's runtime/metrics reads and the
			// heap sampler's — over the build's wall.
			res.put("trace.overhead_share", (meter.spent+hw.spent).Seconds()/bw.buildS, "share")
		}
	}
	if err != nil {
		env.cfg.PageStore.Close()
		return err
	}
	defer bw.close()
	checkBuild(bw, res)
	res.put("write_s", bw.buildS, "s")
	res.put("build_s", bw.buildS, "s")

	// Set-up after the build: the first reads of a built world finish lazy
	// set-up (the text matcher freezes its token tables on first use), so
	// warm-up reads run before the measured phase and count as set-up.
	rng := rand.New(rand.NewSource(cfg.seed))
	keys := keyspace{queries: recordQueries(bw.woc.Records, rng), ids: allRecordIDs(bw.woc.Records)}
	qs := newQueryStack(bw.woc, env.world.Cities(), webgen.Cuisines(), nil)
	runtime.GC() // the build's garbage is not the warm-up's cost
	t := time.Now()
	for _, o := range newUniformSampler(cfg.seed+1, keys).takeMix(warmupOps) {
		if err := qs.do(o); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	res.put("setup_s", median(setups)+since(t), "s")

	due := poissonSchedule(rng, buildReadRate, time.Duration(cfg.seconds)*time.Second)
	ops := newUniformSampler(cfg.seed+2, keys).takeMix(len(due))
	runtime.GC() // nor is the warm-up's the reads'
	results := runOpenLoop(time.Now(), due, cfg.callers, func(i int) error { return qs.do(ops[i]) })
	putOpenLoop(summarize(results), buildTailP, res)

	if cfg.trace {
		putBuildLayers(bw, meter, res)
		if n, err := dirBytes(env.dir); err == nil && bw.src.htmlBytes > 0 {
			res.put("webgraph.disk_bytes_per_html_byte", float64(n)/float64(bw.src.htmlBytes), "ratio")
		}
		putPageGets(bw.woc.Pages, rng, res)
		n := replayOps
		if n > len(ops) {
			n = len(ops)
		}
		replayQueries(qs, ops[:n], res)
	}
	return nil
}

// putBuildLayers records the build's own stage trace, exact counts, the
// generation/ingest split and the per-stage runtime cost.
func putBuildLayers(bw *builtWorld, meter *stageMeter, res *result) {
	stageMetric := map[string]string{
		"extract": "extract.wall_ms", "resolve": "match.resolve_ms",
		"link": "match.link_ms", "index": "index.build_ms",
	}
	for _, c := range bw.stats.Trace.Children {
		if name, ok := stageMetric[c.Name]; ok {
			res.put(name, ms(c.Duration), "ms")
		}
	}
	res.put("core.reconcile_ms", ms(bw.reconcile), "ms")
	res.put("webgen.gen_ms", ms(bw.src.genTime()), "ms")
	res.put("webgraph.put_ms", ms(bw.src.inEmit), "ms")
	res.put("extract.candidates", float64(bw.stats.Candidates), "count")
	res.put("match.records_stored", float64(bw.stats.RecordsStored), "count")
	res.put("match.clusters_merged", float64(bw.stats.ClustersMerged), "count")
	res.put("match.pages_linked", float64(bw.stats.PagesLinked), "count")
	for _, st := range buildStages {
		c := meter.costs[st]
		res.put(st+".alloc_mib", c.AllocMiB, "MiB")
		res.put(st+".gc_cycles", c.GCCycles, "count")
		res.put(st+".gc_cpu_ms", c.GCCPUMs, "ms")
	}
}

// buildStages are the BuildStream stages in pipeline order.
var buildStages = []string{"ingest", "extract", "resolve", "link", "index"}

// putPageGets times a seeded sample of page-store reads.
func putPageGets(pages *webgraph.Store, rng *rand.Rand, res *result) {
	urls := pages.URLs()
	xs := make([]float64, 0, 500)
	for i := 0; i < 500; i++ {
		u := urls[rng.Intn(len(urls))]
		t := time.Now()
		if _, err := pages.Get(u); err != nil {
			res.problem("page %s: %v", u, err)
		}
		xs = append(xs, us(time.Since(t)))
	}
	sort.Float64s(xs)
	res.put("webgraph.get_us", percentile(xs, 50), "us")
}

// putCapacity records a closed loop's outcome: capacity is the median
// window's completion rate.
func putCapacity(rates []float64, n, failed int, res *result) {
	res.attempted += n
	res.failed += failed
	res.put("capacity_qps", median(rates), "ops/s")
	if failed > 0 {
		res.problem("%d of %d closed-loop reads failed", failed, n)
	}
}

// putOpenLoop records an open-loop phase's latency figures and validity,
// with the tail at percentile tailP, which must have at least
// minBeyondTail samples beyond it.
func putOpenLoop(s openLoopSummary, tailP float64, res *result) {
	res.attempted += s.Attempted
	res.failed += s.Failed
	res.put("read_p50_ms", percentile(s.LatencyMs, 50), "ms")
	res.put("read_p90_ms", percentile(s.LatencyMs, 90), "ms")
	res.put(fmt.Sprintf("read_p%g_ms", tailP), percentile(s.LatencyMs, tailP), "ms")
	res.put("read_samples", float64(s.Attempted), "count")
	res.put("error_rate", float64(s.Failed)/float64(s.Attempted), "share")
	res.put("loadgen.late_p99_ms", s.LateP99Ms, "ms")
	res.put("loadgen.queued_share", float64(s.Queued)/float64(s.Attempted), "share")
	if s.Failed > 0 {
		res.problem("%d of %d reads failed", s.Failed, s.Attempted)
	}
	if !tailSupported(s.LatencyMs, tailP) {
		res.problem("only %d reads: fewer than %d lie beyond p%g", s.Attempted, minBeyondTail, tailP)
	}
	if !s.Valid {
		res.problem("load generator fell behind: late p99 %.3fms > %v", s.LateP99Ms, maxLateP99)
	}
}

func allRecordIDs(s *lrec.Store) []string {
	var ids []string
	s.Scan(func(r *lrec.Record) bool {
		ids = append(ids, r.ID)
		return true
	})
	return ids
}

// recordQueries derives instance queries for a world that has no query
// log: the names of a seeded sample of its restaurant and hotel records.
func recordQueries(s *lrec.Store, rng *rand.Rand) []string {
	var qs []string
	for _, c := range []string{"restaurant", "hotel"} {
		for _, r := range s.ByConcept(c) {
			if n := r.Get("name"); n != "" {
				qs = append(qs, n)
			}
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	if len(qs) > 2000 {
		qs = qs[:2000]
	}
	return qs
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}
