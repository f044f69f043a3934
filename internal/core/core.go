// Package core orchestrates construction and maintenance of a web of
// concepts (§4, §7.3): it crawls pages, runs domain-centric extraction
// (list + detail with site-level template propagation), resolves co-referent
// candidates with collective entity matching, links free-text pages
// (reviews, articles) to records with the generative text matcher, builds
// the document/record inverted indexes, and maintains the whole thing
// incrementally as pages change.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"conceptweb/internal/extract"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgraph"
)

// Config assembles the domain knowledge for a build.
type Config struct {
	Registry *lrec.Registry
	// Domains drive list/detail extraction, one per concept of interest.
	Domains []extract.Domain
	// Matchers provide entity matching per concept name; concepts without a
	// matcher are deduplicated by synthesized ID only.
	Matchers map[string]*match.Matcher
	// LinkConcepts are the concepts whose records participate in semantic
	// linking of free-text pages (reviews, articles).
	LinkConcepts []string
	// LinkThreshold is the minimum text-match score to create a link
	// (default 0.35).
	LinkThreshold float64
	// MaxPages bounds the crawl (0 = unlimited).
	MaxPages int
	// Workers is the size of the worker pool the extract, link, and index
	// stages (and Refresh's refetch/extract) fan out over; 0 or negative
	// means runtime.GOMAXPROCS(0). Output is deterministic at any value:
	// results fan back in by task index, so the same seed and corpus yield
	// identical stores and indexes whether Workers is 1 or 64.
	Workers int
	// Shards partitions the record store and both inverted indexes into
	// hash-routed shards, letting the resolve and index stages write
	// concurrently into disjoint partitions instead of queueing on one
	// lock. 0 or 1 keeps the single-partition layout (and, for durable
	// stores, the pre-sharding on-disk format). Like Workers, the value
	// never changes output: store contents, version numbers, and search
	// results are identical at any (workers × shards) combination.
	Shards int
	// Gate, when non-nil, admits a page to a concept's detail extraction;
	// build one with ClassifierGate to route only relevant pages to each
	// domain's extractor (§4.2 relational classification). The extract stage
	// calls Gate from several workers at once, so implementations must be
	// safe for concurrent use (ClassifierGate is: it only reads maps frozen
	// at construction).
	Gate func(concept string, p *webgraph.Page) bool
	// StoreDir, when set, backs the concept store durably (write-ahead log
	// plus snapshots) in that directory instead of memory.
	StoreDir string
	// PageStore, when non-nil, receives crawled or ingested pages instead of
	// a fresh in-memory store. Pass webgraph.OpenDiskStore's result to keep
	// page bytes in segment files with only a bounded parse cache resident —
	// the corpus-scale configuration BuildStream is designed around.
	PageStore *webgraph.Store
	// Progress, when non-nil, receives pipeline progress callbacks: a stage
	// name plus done/total counts (total is 0 when unknown). Callbacks come
	// from multiple goroutines and must be cheap and concurrency-safe.
	Progress func(stage string, done, total int)
	// Metrics, when non-nil, receives pipeline counters, store counters, and
	// per-stage latency histograms. Stage traces in BuildStats/RefreshStats
	// are produced regardless.
	Metrics *obs.Registry
}

// WebOfConcepts is the built artifact: the unified concept store plus the
// document-side structures applications consume.
type WebOfConcepts struct {
	Registry *lrec.Registry
	Records  *lrec.Store
	Pages    *webgraph.Store
	// DocIndex indexes page text; RecIndex indexes flattened lrecs — the
	// paper's stipulation that concept retrieval ride on inverted indexes.
	// Both are hash-sharded (1 shard unless Config.Shards says otherwise).
	DocIndex *index.Sharded
	RecIndex *index.Sharded
	// Assoc maps page URL -> record IDs the page is about; RevAssoc is the
	// inverse. Both underlie the §5.1 ranking features and §5.4 pivots.
	Assoc    map[string][]string
	RevAssoc map[string][]string
	// goneAssoc remembers, for pages removed by a maintenance pass, which
	// records they fed — the lineage ledger the supersede stage consults
	// when a gone page resurrects with different content. Entries are
	// cleared on resurrection; pages that never return keep theirs.
	goneAssoc map[string][]string

	// epoch is the maintenance generation counter: 1 after Build, bumped by
	// every maintenance pass that changes visible state (Refresh with
	// changed or gone pages, Reconcile that trimmed records). The value
	// serving layers actually key caches by is Epoch(), which folds this
	// counter together with the per-shard epochs of the store and both
	// indexes.
	epoch atomic.Uint64
}

// Epoch returns the current data generation, composed from the maintenance
// counter plus the per-shard mutation epochs of the record store and both
// inverted indexes. Every shard epoch is monotonic, so the composed value
// strictly increases on any visible mutation anywhere — the serving
// contract — and an unchanged maintenance pass reproduces the previous
// value, keeping epoch-keyed result caches warm. Each shard epoch counts
// that shard's mutations, so the sum is invariant to how records hash
// across shards: the same build yields the same epoch at any (workers ×
// shards) combination.
func (woc *WebOfConcepts) Epoch() uint64 {
	e := woc.epoch.Load()
	if woc.Records != nil {
		for _, se := range woc.Records.ShardEpochs() {
			e += se
		}
	}
	if woc.DocIndex != nil {
		for _, se := range woc.DocIndex.ShardEpochs() {
			e += se
		}
	}
	if woc.RecIndex != nil {
		for _, se := range woc.RecIndex.ShardEpochs() {
			e += se
		}
	}
	return e
}

// BumpEpoch advances the maintenance generation counter and returns the new
// composed epoch. Callers that batch several mutations (refresh +
// reconcile) bump once per batch.
func (woc *WebOfConcepts) BumpEpoch() uint64 {
	woc.epoch.Add(1)
	return woc.Epoch()
}

// Close flushes and closes the underlying concept store (a no-op for
// in-memory builds).
func (woc *WebOfConcepts) Close() error { return woc.Records.Close() }

// AssocOf returns the record IDs associated with a page URL.
func (woc *WebOfConcepts) AssocOf(url string) []string { return woc.Assoc[url] }

// PagesOf returns the page URLs associated with a record ID.
func (woc *WebOfConcepts) PagesOf(id string) []string { return woc.RevAssoc[id] }

// BuildStats reports what a build did.
type BuildStats struct {
	PagesFetched   int
	FetchFailures  int
	Candidates     int
	RecordsStored  int
	ClustersMerged int // candidate records absorbed into clusters
	PagesLinked    int // free-text pages linked to records
	ReviewRecords  int
	// Workers annotates the trace with the worker-pool size the parallel
	// stages ran at, so recorded stage tables are comparable across runs.
	Workers int
	// Epoch is the data generation the build produced; maintenance passes
	// (Refresh, Reconcile) advance it whenever they change visible state.
	Epoch uint64
	// StoreRecovery reports what opening the durable store found and
	// repaired (snapshot/log frames replayed, torn-tail truncation); nil
	// for in-memory builds. A repaired torn tail is worth surfacing: it
	// means the previous process died mid-append.
	StoreRecovery *lrec.RecoveryStats
	// Trace is the per-stage timing tree of the build (crawl or ingest,
	// then extract/resolve/link/index); render it with Trace.Table().
	Trace *obs.TraceReport
}

// Builder runs builds against a fetcher.
type Builder struct {
	Fetcher webgraph.Fetcher
	Cfg     Config

	// assocSeen is associate's reused per-record dedupe set; see associate.
	assocSeen map[string]bool
}

// Build crawls from seeds and constructs the web of concepts. It differs
// from BuildStream only in its first stage — a breadth-first crawl through
// Fetcher into the page store instead of ingesting a PageSource — and shares
// every stage after it (see build). Each stage (crawl, extract, resolve,
// link, index) is timed into a trace tree returned on BuildStats.Trace and,
// when Cfg.Metrics is set, into per-stage latency histograms named
// "build.<stage>".
func (b *Builder) Build(seeds []string) (*WebOfConcepts, *BuildStats, error) {
	return b.build("crawl", func(woc *WebOfConcepts, stats *BuildStats) error {
		crawler := &webgraph.Crawler{
			Fetcher: b.Fetcher, Store: woc.Pages, MaxPages: b.Cfg.MaxPages,
		}
		stats.PagesFetched, stats.FetchFailures = crawler.Crawl(seeds)
		return nil
	})
}

// build is the one construction pipeline behind Build and BuildStream. fill
// populates the empty artifact's page store and is traced as the stage
// named first. The later stages read pages back from the store a site or a
// chunk at a time (§7.1: per-site batch stages), so no corpus-wide page
// structure — analyses, prepared documents, a link graph — is resident:
//
//   - extract runs host by host over the ordered fan-in; each host's
//     PageAnalysis values die when its task returns, and candidates fold
//     into per-concept groups as hosts finish.
//   - resolve clusters one concept's groups at a time and stores the
//     representatives.
//   - link re-analyzes candidate pages through the page store (its parse
//     cache, on a disk store) instead of holding every analysis.
//   - index prepares page documents in bounded chunks.
func (b *Builder) build(first string, fill func(*WebOfConcepts, *BuildStats) error) (*WebOfConcepts, *BuildStats, error) {
	woc, storeRecovery, err := b.newWoc()
	if err != nil {
		return nil, nil, err
	}
	stats := &BuildStats{Workers: b.workers(), StoreRecovery: storeRecovery}
	ctx, root := pipelineCtx("build")

	var fillErr error
	b.stage(ctx, first, func(context.Context) {
		fillErr = fill(woc, stats)
	})
	if fillErr != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", first, fillErr)
	}

	cg := newConceptGroups(nil)
	b.stage(ctx, "extract", func(context.Context) {
		b.extractHosts(woc.Pages, woc.Pages.Hosts(), cg)
		stats.Candidates = cg.total
	})
	b.stage(ctx, "resolve", func(context.Context) {
		b.progress("resolve", 0, stats.Candidates)
		b.resolveAndStore(woc, cg, stats)
		b.progress("resolve", stats.Candidates, stats.Candidates)
	})
	cg = nil // the groups are drained; let them go before link
	b.stage(ctx, "link", func(context.Context) {
		b.progress("link", 0, 0)
		b.linkText(woc, stats)
	})
	b.stage(ctx, "index", func(context.Context) {
		b.fillIndexes(woc)
	})

	root.End()
	stats.Trace = root.Report()
	stats.Epoch = woc.BumpEpoch()
	m := b.Cfg.Metrics
	m.Counter("build.runs").Inc()
	m.Counter("build.pages.fetched").Add(int64(stats.PagesFetched))
	m.Counter("build.candidates").Add(int64(stats.Candidates))
	m.Counter("build.records.stored").Add(int64(stats.RecordsStored))
	m.Counter("build.pages.linked").Add(int64(stats.PagesLinked))
	return woc, stats, nil
}

// newWoc assembles the empty artifact a build fills: the record store
// (memory or durable per StoreDir), the page store (Config.PageStore or a
// fresh in-memory one), and the sharded indexes.
func (b *Builder) newWoc() (*WebOfConcepts, *lrec.RecoveryStats, error) {
	if b.Cfg.Registry == nil {
		return nil, nil, fmt.Errorf("core: nil registry")
	}
	records := lrec.NewMemStore(lrec.WithRegistry(b.Cfg.Registry),
		lrec.WithMetrics(b.Cfg.Metrics), lrec.WithShards(b.Cfg.Shards))
	var storeRecovery *lrec.RecoveryStats
	if b.Cfg.StoreDir != "" {
		durable, err := lrec.Open(b.Cfg.StoreDir,
			lrec.WithRegistry(b.Cfg.Registry), lrec.WithMetrics(b.Cfg.Metrics),
			lrec.WithShards(b.Cfg.Shards))
		if err != nil {
			return nil, nil, fmt.Errorf("core: open store: %w", err)
		}
		records = durable
		rec := durable.Recovery()
		storeRecovery = &rec
	}
	pages := b.Cfg.PageStore
	if pages == nil {
		pages = webgraph.NewStore()
	}
	woc := &WebOfConcepts{
		Registry: b.Cfg.Registry,
		Records:  records,
		Pages:    pages,
		DocIndex: index.NewSharded(b.Cfg.Shards),
		RecIndex: index.NewSharded(b.Cfg.Shards),
		Assoc:    make(map[string][]string),
		RevAssoc: make(map[string][]string),
	}
	return woc, storeRecovery, nil
}

// progress reports pipeline progress to Config.Progress when set.
func (b *Builder) progress(stage string, done, total int) {
	if b.Cfg.Progress != nil {
		b.Cfg.Progress(stage, done, total)
	}
}

// stage runs fn inside a child span of ctx named name, mirroring its
// duration into the "<pipeline>.<name>" latency histogram (pipeline being
// the enclosing root span: build or refresh) when metrics are on.
func (b *Builder) stage(ctx context.Context, name string, fn func(context.Context)) {
	sctx, span := obs.Start(ctx, name)
	fn(sctx)
	d := span.End()
	prefix := "build"
	if r, ok := ctx.Value(rootNameKey{}).(string); ok {
		prefix = r
	}
	b.Cfg.Metrics.Histogram(prefix + "." + name).ObserveDuration(d)
}

type rootNameKey struct{}

// pipelineCtx opens the root span for a pipeline run and tags the context
// with its name so stage() can prefix metrics correctly.
func pipelineCtx(name string) (context.Context, *obs.Span) {
	ctx := context.WithValue(context.Background(), rootNameKey{}, name)
	return obs.Start(ctx, name)
}

// extractHosts runs domain-centric extraction over the given hosts (sorted):
// list extraction with template propagation, plus detail extraction on
// pages where no list of the same concept was found (a page that lists
// five restaurants is not a detail page about one). Build runs it over
// every host, Refresh over the hosts a change touched.
//
// The unit of parallelism is a host — per-site extraction is the
// embarrassingly parallel unit (§7.1). Each task analyzes its host's pages
// once, shares the analyses across every domain (their lazy views are
// goroutine-safe), and returns the host's candidates; the analyses die with
// the task. The ordered fan-in folds each host's candidates into cg as soon
// as every earlier host has folded, so at most 4·w host results are ever
// resident, and candidate order — sorted hosts, then the config's domain
// order, then site-page order — is identical at any worker count. A
// host-restricted delta extraction therefore folds candidates in the same
// relative order a fresh build would, which the pre-merge value dedupe
// depends on.
func (b *Builder) extractHosts(pages *webgraph.Store, hosts []string, cg *conceptGroups) {
	w := b.workers()
	parallelEachOrdered(len(hosts), w, 4*w,
		func(i int) []*extract.Candidate {
			var sitePas []*extract.PageAnalysis
			for _, u := range pages.HostPages(hosts[i]) {
				if p, err := pages.Get(u); err == nil {
					sitePas = append(sitePas, extract.Analyze(p))
				}
			}
			var all []*extract.Candidate
			for _, d := range b.Cfg.Domains {
				all = append(all, b.extractSite(sitePas, d)...)
			}
			return all
		},
		func(i int, cands []*extract.Candidate) {
			cg.addAll(cands)
			if d := i + 1; d%64 == 0 || d == len(hosts) {
				b.progress("extract", d, len(hosts))
			}
		})
}

// extractSite is the body of one extract task: one domain's list extraction
// with site propagation plus detail extraction over one site's pages.
func (b *Builder) extractSite(sitePas []*extract.PageAnalysis, d extract.Domain) []*extract.Candidate {
	prop := &extract.SitePropagator{Inner: &extract.ListExtractor{Domain: d}}
	listCands := prop.ExtractSiteAnalyzed(sitePas)
	listPages := make(map[string]int)
	for _, c := range listCands {
		listPages[c.SourceURL]++
	}
	all := listCands
	det := &extract.DetailExtractor{Domain: d}
	for _, pa := range sitePas {
		p := pa.Page
		if listPages[p.URL] >= 1 {
			// The page yielded list records of this concept: it is a
			// listing (even a single-result one), not a detail page.
			continue
		}
		if b.Cfg.Gate != nil && !b.Cfg.Gate(d.Concept, p) {
			continue // classification routed this page elsewhere
		}
		for _, c := range det.ExtractAnalyzed(pa) {
			if p.Path == "/" {
				// A detail page at a site root is the instance's own
				// homepage.
				c.Add("homepage", p.URL, 0.9)
			}
			if hp := officialSiteLink(p); hp != "" {
				c.Add("homepage", hp, 0.8)
			}
			all = append(all, c)
		}
	}
	return all
}

// officialSiteLink finds an outlink labeled as the official site.
func officialSiteLink(p *webgraph.Page) string {
	for _, a := range p.Doc.FindAll("a") {
		txt := textproc.Normalize(a.Text())
		if strings.Contains(txt, "official site") || strings.Contains(txt, "official website") {
			if href, ok := a.AttrVal("href"); ok {
				return canonicalURL(href)
			}
		}
		// Table-style sites label the row and link the raw URL.
		if href, ok := a.AttrVal("href"); ok && textproc.NormalizeKey(a.Text()) == textproc.NormalizeKey(href) && href != "" {
			return canonicalURL(href)
		}
	}
	return ""
}

// pageMainText returns the page text with nav/footer/breadcrumb boilerplate
// removed, so semantic linking scores content rather than chrome. The walk
// itself lives on PageAnalysis so build-time callers holding an analysis
// share the cached result.
func pageMainText(p *webgraph.Page) string {
	return extract.Analyze(p).MainText()
}

func canonicalURL(u string) string {
	u = strings.TrimPrefix(u, "http://")
	u = strings.TrimPrefix(u, "https://")
	return u
}

// resolveAndStore resolves co-references within the collector's pre-merged
// per-concept groups and stores one merged record per resolved entity. The
// extract stage already grouped candidates as they streamed in; finish only
// stamps final provenance seqs and hands over sorted groups, one concept
// resident in resolve at a time.
func (b *Builder) resolveAndStore(woc *WebOfConcepts, cg *conceptGroups, stats *BuildStats) {
	for _, concept := range cg.concepts() {
		recs := cg.take(concept, woc.Records)
		// Stores go through PutBatch: versions are assigned serially in
		// cluster order before the writes fan out one goroutine per store
		// shard, so the store contents — version numbers included — are
		// identical to a serial Put loop at any (workers × shards)
		// combination. Association bookkeeping stays serial, in the same
		// order.
		toStore := recs
		if m := b.Cfg.Matchers[concept]; m != nil {
			clusters := match.Resolve(recs, m, match.DefaultCollectiveOptions())
			toStore = make([]*lrec.Record, 0, len(clusters))
			for _, cl := range clusters {
				stats.ClustersMerged += len(cl.Members) - 1
				toStore = append(toStore, cl.Rep)
			}
		}
		for i, err := range woc.Records.PutBatch(toStore, b.workers()) {
			if err == nil {
				stats.RecordsStored++
				b.associate(woc, toStore[i])
			}
		}
	}
}

// associate records page<->record associations from provenance. It reuses
// one per-builder seen set across calls (associate runs serially, from the
// resolve apply loop) instead of allocating a map per record — the
// allocation showed up on the 100k-page resolve-stage profile.
func (b *Builder) associate(woc *WebOfConcepts, r *lrec.Record) {
	if b.assocSeen == nil {
		b.assocSeen = make(map[string]bool)
	}
	seen := b.assocSeen
	clear(seen)
	for _, k := range r.Keys() {
		for _, v := range r.All(k) {
			u := v.Prov.SourceURL
			if u == "" || seen[u] {
				continue
			}
			seen[u] = true
			woc.Assoc[u] = appendUnique(woc.Assoc[u], r.ID)
			woc.RevAssoc[r.ID] = appendUnique(woc.RevAssoc[r.ID], u)
		}
	}
	// The record's homepage (and its subpages, transitively crawled) is also
	// associated.
	if hp := r.Get("homepage"); hp != "" {
		woc.Assoc[hp] = appendUnique(woc.Assoc[hp], r.ID)
		woc.RevAssoc[r.ID] = appendUnique(woc.RevAssoc[r.ID], hp)
	}
}

// appendUnique inserts v into the sorted list if absent, keeping it sorted.
// Insertion at the right position replaces the old append-then-sort, which
// re-sorted the whole slice on every call (O(n² log n) across a build).
func appendUnique(list []string, v string) []string {
	i := sort.SearchStrings(list, v)
	if i < len(list) && list[i] == v {
		return list
	}
	list = append(list, "")
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// linkText runs semantic linking (§5.4): pages that produced no structured
// records but whose text matches a stored record become review/mention
// records linked to their subject.
//
// Scoring fans out over the worker pool (see scoreLinks); all mutation —
// Assoc/RevAssoc entries and review-record Puts, including their NextSeq
// stamps — happens in a single apply phase that walks the hits in
// sorted-URL order, keeping seq assignment deterministic. Scoring reads
// woc.Assoc concurrently, which is safe because the apply phase has not
// started and no other stage runs: each page's skip decision depends only
// on extraction-time associations, never on another page's link.
func (b *Builder) linkText(woc *WebOfConcepts, stats *BuildStats) {
	urls := woc.Pages.URLs()
	hits, ok := b.scoreLinks(woc, urls, func(u string) bool {
		return len(woc.Assoc[u]) > 0 // already associated through extraction
	})
	if !ok {
		return
	}
	for i, h := range hits {
		if h == nil {
			continue
		}
		u := urls[i]
		stats.PagesLinked++
		woc.Assoc[u] = appendUnique(woc.Assoc[u], h.recID)
		woc.RevAssoc[h.recID] = appendUnique(woc.RevAssoc[h.recID], u)
		if woc.Records.Put(reviewRecord(woc, u, h)) == nil {
			stats.ReviewRecords++
		}
	}
}

// linkHit is a page's best text-match subject and the snippet its review
// record quotes.
type linkHit struct {
	recID   string
	snippet string
}

// scoreLinks scores each page of urls against the link concepts' stored
// records with one shared text matcher, whose read path is goroutine-safe,
// so pages score across the worker pool. hits[i] is nil for a page that is
// skipped, missing, too short, or below the link threshold. ok is false
// when linking is off (no link concepts, or no records of them).
func (b *Builder) scoreLinks(woc *WebOfConcepts, urls []string, skip func(url string) bool) (hits []*linkHit, ok bool) {
	var corpus []*lrec.Record
	for _, c := range b.Cfg.LinkConcepts {
		corpus = append(corpus, woc.Records.ByConcept(c)...)
	}
	if len(corpus) == 0 {
		return nil, false
	}
	threshold := b.Cfg.LinkThreshold
	if threshold == 0 {
		threshold = 0.35
	}
	tm := match.NewTextMatcher(corpus)
	hits = make([]*linkHit, len(urls))
	parallelEach(len(urls), b.workers(), func(i int) {
		if skip != nil && skip(urls[i]) {
			return
		}
		p, err := woc.Pages.Get(urls[i])
		if err != nil {
			return
		}
		pa := extract.Analyze(p)
		text := pa.MainText()
		if len(text) < 40 {
			return
		}
		best, found := tm.BestTokens(pa.MainTokens(), threshold)
		if !found {
			return
		}
		hits[i] = &linkHit{recID: best.ID, snippet: truncateBytes(text, 280)}
	})
	return hits, true
}

// reviewID is the deterministic ID of the review record linking page url.
func reviewID(url string) string { return "review:" + textproc.NormalizeKey(url) }

// reviewRecord builds the review record for a page linked to h.recID,
// stamping its values with the store's next provenance seq.
func reviewRecord(woc *WebOfConcepts, url string, h *linkHit) *lrec.Record {
	rev := lrec.NewRecord(reviewID(url), "review")
	seq := woc.Records.NextSeq()
	add := func(key, val string, conf float64) {
		rev.Add(key, lrec.AttrValue{Value: val, Confidence: conf,
			Prov: lrec.Provenance{SourceURL: url, Operators: []string{"textmatch"}, Seq: seq}})
	}
	add("text", h.snippet, 0.9)
	add("about", h.recID, 0.8)
	add("source", url, 1)
	return rev
}

// truncateBytes cuts s to at most max bytes without splitting a multi-byte
// UTF-8 rune: the cut backs up to the nearest rune boundary.
func truncateBytes(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut]
}

// indexChunk is how many pages the index stage prepares per batch. Chunks
// run in sorted-URL order and AddPreparedBatch preserves relative order per
// shard, so doc numbering is the same as one corpus-sized batch would give.
const indexChunk = 1024

// fillIndexes fills the document and record inverted indexes. Analysis (DOM
// text flattening + tokenization, the expensive part) fans out over the
// worker pool via index.Prepare, indexChunk pages at a time; the prepared
// postings then merge with one writer per index shard, each adding its
// shard's documents in sorted doc-ID order, so internal doc and field
// numbering — and hence serialized index state and every score — is
// identical at any (workers × shards) combination.
func (b *Builder) fillIndexes(woc *WebOfConcepts) {
	w := b.workers()
	urls := woc.Pages.URLs()
	for lo := 0; lo < len(urls); lo += indexChunk {
		chunk := urls[lo:min(lo+indexChunk, len(urls))]
		docs := make([]index.PreparedDoc, len(chunk))
		parallelEach(len(chunk), w, func(i int) {
			p, err := woc.Pages.Get(chunk[i])
			if err != nil {
				return
			}
			docs[i] = index.Prepare(pageDocument(p))
		})
		woc.DocIndex.AddPreparedBatch(docs, w)
		b.progress("index", lo+len(chunk), len(urls))
	}

	var recs []*lrec.Record
	woc.Records.Scan(func(r *lrec.Record) bool {
		if r.Concept != "review" { // reviews are reachable via their subject
			recs = append(recs, r)
		}
		return true
	})
	rdocs := make([]index.PreparedDoc, len(recs))
	parallelEach(len(recs), w, func(i int) {
		rdocs[i] = index.Prepare(recordDocument(recs[i]))
	})
	woc.RecIndex.AddPreparedBatch(rdocs, w)
	b.updateIndexGauges(woc)
}

// updateIndexGauges publishes each index shard's posting-entry count as the
// index.shard.<k>.postings gauge (doc and record indexes summed per shard).
func (b *Builder) updateIndexGauges(woc *WebOfConcepts) {
	if b.Cfg.Metrics == nil {
		return
	}
	dp := woc.DocIndex.ShardPostings()
	rp := woc.RecIndex.ShardPostings()
	for i, n := range dp {
		if i < len(rp) {
			n += rp[i]
		}
		b.Cfg.Metrics.Gauge(fmt.Sprintf("index.shard.%d.postings", i)).Set(int64(n))
	}
}

// pageDocument shapes a page for the document index.
func pageDocument(p *webgraph.Page) index.Document {
	title := ""
	if t := p.Doc.FindFirst("title"); t != nil {
		title = t.Text()
	}
	return index.Document{ID: p.URL, Fields: []index.Field{
		{Name: "title", Text: title, Boost: 2.5},
		{Name: "body", Text: p.Doc.Text()},
	}}
}

// recordDocument shapes a flattened lrec for the record index.
func recordDocument(r *lrec.Record) index.Document {
	name := r.Get("name")
	if name == "" {
		name = r.Get("title")
	}
	return index.Document{ID: r.ID, Fields: []index.Field{
		{Name: "name", Text: name, Boost: 3},
		{Name: "attrs", Text: r.FlatText()},
	}}
}
