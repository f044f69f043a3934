package core

import (
	"context"
	"fmt"
	"sort"

	"conceptweb/internal/extract"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/obs"
	"conceptweb/internal/webgraph"
)

// Maintenance (§7.3): "there is an obvious efficiency challenge in
// processing the same web pages repeatedly without re-incurring the full
// cost of extraction when the page is not modified in a material way", and
// updated pages must be linked to existing records "to correctly update
// existing records rather than create new ones".

// RefreshStats reports one incremental maintenance pass.
type RefreshStats struct {
	PagesChecked   int
	PagesUnchanged int // extraction skipped entirely
	PagesChanged   int
	PagesGone      int // fetch failed: page removed from retrieval
	RecordsUpdated int
	RecordsCreated int
	// RecordsSuperseded counts records retired by a changed page's lineage
	// and rebuilt by host re-extraction; RecordsDeleted counts retired
	// records the new corpus no longer supports at all.
	RecordsSuperseded int
	RecordsDeleted    int
	// PagesRelinked counts changed free-text pages re-linked to a record by
	// the semantic-link pass (the delta analogue of the build link stage).
	PagesRelinked int
	// Workers annotates the pass with the worker-pool size the parallel
	// refetch/extract stages ran at.
	Workers int
	// Epoch is the data generation after the pass: bumped when the pass
	// changed visible state (pages changed or gone, records touched),
	// unchanged otherwise so result caches stay warm across no-op refreshes.
	Epoch uint64
	// Trace is the per-stage timing tree of the pass (refetch/extract/upsert).
	Trace *obs.TraceReport
}

// Refresh re-fetches the given URLs against the builder's fetcher, skipping
// extraction for unmodified pages (content-hash comparison) and folding
// changes back in through the build's own pipeline stages. Records downstream
// of a changed page are retired entirely (lineage-driven: in-place value
// stripping cannot converge, because value dedupe folds sibling pages'
// co-assertions into one provenance entry), then their source hosts are
// re-extracted, re-resolved, and upserted; a relink pass re-runs the
// free-text link stage wherever retired or rebuilt records could shift
// text-match scores. The invariant, enforced by the delta-equivalence test:
// a delta pass lands on exactly the store content, association maps, and
// search results a fresh build over the new corpus would produce.
//
// Refetch (fetch + parse) and re-extraction fan out over the same worker
// pool as Build, fanning back in by task index: store/index mutations and
// upserts apply in input-URL order, so a refresh is deterministic at any
// Config.Workers value.
func (b *Builder) Refresh(woc *WebOfConcepts, urls []string) (*RefreshStats, error) {
	stats := &RefreshStats{Workers: b.workers()}
	ctx, root := pipelineCtx("refresh")
	defer func() {
		root.End()
		stats.Trace = root.Report()
		// Changed visible state invalidates epoch-keyed result caches; a
		// pass that found nothing new leaves them warm.
		if stats.PagesChanged > 0 || stats.PagesGone > 0 ||
			stats.RecordsUpdated > 0 || stats.RecordsCreated > 0 ||
			stats.RecordsSuperseded > 0 || stats.RecordsDeleted > 0 ||
			stats.PagesRelinked > 0 {
			stats.Epoch = woc.BumpEpoch()
		} else {
			stats.Epoch = woc.Epoch()
		}
		m := b.Cfg.Metrics
		m.Counter("refresh.runs").Inc()
		m.Counter("refresh.pages.checked").Add(int64(stats.PagesChecked))
		m.Counter("refresh.pages.unchanged").Add(int64(stats.PagesUnchanged))
		m.Counter("refresh.pages.changed").Add(int64(stats.PagesChanged))
		m.Counter("refresh.pages.gone").Add(int64(stats.PagesGone))
		m.Counter("refresh.records.superseded").Add(int64(stats.RecordsSuperseded))
		m.Counter("refresh.records.deleted").Add(int64(stats.RecordsDeleted))
		m.Counter("refresh.pages.relinked").Add(int64(stats.PagesRelinked))
		b.updateIndexGauges(woc)
	}()

	var changed []*webgraph.Page
	b.stage(ctx, "refetch", func(context.Context) {
		// Fetch + parse in parallel; apply results in input-URL order.
		pages := make([]*webgraph.Page, len(urls))
		parallelEach(len(urls), b.workers(), func(i int) {
			if html, err := b.Fetcher.Fetch(urls[i]); err == nil {
				pages[i] = webgraph.NewPage(urls[i], html)
			}
		})
		for i, u := range urls {
			stats.PagesChecked++
			p := pages[i]
			if p == nil {
				// The page is gone ("restaurants close down", §7.3): drop it
				// from the page store and retrieval and sever its
				// associations. Forgetting the stored content hash is load-
				// bearing: a page that later reappears with identical bytes
				// must register as changed in Pages.Put, or it would never be
				// re-indexed (the gone→resurrect bug). Its contribution to
				// records remains, flagged by lineage, until re-extraction on
				// reappearance supersedes it.
				stats.PagesGone++
				woc.Pages.Delete(u)
				woc.DocIndex.Remove(u)
				if len(woc.Assoc[u]) > 0 {
					// Remember which records the dead page fed (the lineage
					// ledger): if the page resurrects with different content,
					// the supersede stage still needs to find and strip its
					// stale contribution even though the live maps below are
					// severed now.
					if woc.goneAssoc == nil {
						woc.goneAssoc = make(map[string][]string)
					}
					woc.goneAssoc[u] = append([]string(nil), woc.Assoc[u]...)
				}
				for _, id := range woc.Assoc[u] {
					removeAssoc(woc.RevAssoc, id, u)
				}
				delete(woc.Assoc, u)
				continue
			}
			if !woc.Pages.Put(p) {
				stats.PagesUnchanged++
				continue
			}
			stats.PagesChanged++
			changed = append(changed, p)
		}
	})
	if len(changed) == 0 {
		return stats, nil
	}

	// Retire every record downstream of a changed page (the lineage walk)
	// and remember which hosts fed those records: extraction is site-scoped,
	// so converging on a fresh build means re-running the extract stage over
	// the retired records' source sites, not just the changed pages.
	var retired map[string]*lrec.Record
	var hosts []string
	b.stage(ctx, "supersede", func(context.Context) {
		retired, hosts = b.retireAffected(woc, changed, stats)
	})

	// Re-extract the affected hosts through the build's own extract stage
	// (list extraction with site propagation plus detail extraction), and
	// bring the document index up to date for the changed pages. Candidates
	// fold into the per-concept collector as hosts finish, filtered at fold
	// time to the affected set (retired IDs, changed pages' output, and IDs
	// absent from the store — members that entity resolution had merged
	// away). The store is not mutated between the supersede stage and the
	// upsert below, so filtering during extraction sees the same store state
	// the old post-extraction filter did.
	changedSet := make(map[string]bool, len(changed))
	for _, p := range changed {
		changedSet[p.URL] = true
	}
	cg := newConceptGroups(func(c *extract.Candidate, id string) bool {
		if _, wasRetired := retired[id]; wasRetired || changedSet[c.SourceURL] {
			return true
		}
		// The candidate re-asserts an untouched record from an unchanged
		// page: nothing to fold.
		_, err := woc.Records.Get(id)
		return err != nil
	})
	b.stage(ctx, "extract", func(context.Context) {
		docs := make([]index.PreparedDoc, len(changed))
		parallelEach(len(changed), b.workers(), func(i int) {
			docs[i] = index.Prepare(pageDocument(changed[i]))
		})
		for _, d := range docs {
			woc.DocIndex.AddPrepared(d)
		}
		b.extractHosts(woc.Pages, hosts, cg)
	})

	var linkDirty bool
	b.stage(ctx, "upsert", func(context.Context) {
		linkDirty = b.applyCandidates(woc, cg, retired, stats)
	})

	// Re-run semantic linking (§5.4). When no link-concept record changed,
	// only changed pages that ended the pass unassociated need a linking
	// attempt. When one did, every linkable page is re-scored: the text
	// matcher ranks against record content, so a rebuilt record can win or
	// lose a page it never touched.
	b.stage(ctx, "relink", func(context.Context) {
		b.relinkPass(woc, changed, linkDirty, stats)
	})

	// Classify retirement outcomes now that rebuild and relink have run:
	// records that came back were superseded in place, the rest are gone.
	stats.RecordsSuperseded, stats.RecordsDeleted = 0, 0
	for id := range retired {
		if _, err := woc.Records.Get(id); err != nil {
			stats.RecordsDeleted++
		} else {
			stats.RecordsSuperseded++
		}
	}
	return stats, nil
}

// retireAffected walks the lineage of every changed page — its live
// associations, the ledger stashed when it went gone, and its deterministic
// review record — and retires each downstream record: the record is deleted
// from the store and record index and its associations severed, to be
// rebuilt from a fresh extraction over its source sites. Retirement is the
// delta analogue of "these records never existed": the rebuild then
// reproduces exactly what a from-scratch build over the new corpus stores,
// including value provenance and dedupe order, which in-place value
// stripping cannot (a stripped value may have been co-asserted by an
// unchanged sibling page whose assertion the dedupe folded away).
//
// It returns the retired records and the sorted hosts whose sites must
// re-extract: every host that fed a retired record, plus the changed pages'
// own hosts.
func (b *Builder) retireAffected(woc *WebOfConcepts, changed []*webgraph.Page, stats *RefreshStats) (map[string]*lrec.Record, []string) {
	retired := make(map[string]*lrec.Record)
	reviewPage := make(map[string]string)
	var order []string
	for _, p := range changed {
		u := p.URL
		ids := append([]string(nil), woc.Assoc[u]...)
		// A page resurrecting after a gone pass has empty live associations;
		// the ledger stashed at removal still names its downstream records.
		for _, id := range woc.goneAssoc[u] {
			ids = appendUnique(ids, id)
		}
		delete(woc.goneAssoc, u)
		// Review records are linked from the page, not to it: Assoc[u] names
		// the review's subject. The review itself has a deterministic ID.
		revID := reviewID(u)
		if _, err := woc.Records.Get(revID); err == nil {
			ids = appendUnique(ids, revID)
			reviewPage[revID] = u
		}
		for _, id := range ids {
			if _, done := retired[id]; done {
				continue
			}
			rec, err := woc.Records.Get(id)
			if err != nil {
				continue
			}
			// An association without a contributed value (a review page's
			// subject, a homepage link harvested elsewhere) does not make the
			// record stale: its content is independent of this page.
			if id != revID && !sourcedFrom(rec, u) {
				continue
			}
			retired[id] = rec
			order = append(order, id)
		}
	}
	sort.Strings(order)

	hosts := make(map[string]bool)
	for _, id := range order {
		rec := retired[id]
		for _, src := range woc.RevAssoc[id] {
			if p, err := woc.Pages.Get(src); err == nil {
				hosts[p.Host] = true
			}
		}
		// Value sources whose association was folded away by dedupe still
		// need their site re-extracted; walk provenance directly too.
		for _, k := range rec.Keys() {
			for _, v := range rec.All(k) {
				if p, err := woc.Pages.Get(v.Prov.SourceURL); err == nil {
					hosts[p.Host] = true
				}
			}
		}
		woc.Records.Delete(id) //nolint:errcheck // degraded store: rebuild re-puts
		woc.RecIndex.Remove(id)
		for _, src := range woc.RevAssoc[id] {
			removeAssoc(woc.Assoc, src, id)
		}
		delete(woc.RevAssoc, id)
		if rec.Concept == "review" {
			// The review's page links to the subject, not to the review;
			// sever that edge so the relink stage sees a clean slate.
			if u := reviewPage[id]; u != "" {
				for _, sid := range woc.Assoc[u] {
					removeAssoc(woc.RevAssoc, sid, u)
				}
				delete(woc.Assoc, u)
			}
		}
	}
	for _, p := range changed {
		hosts[p.Host] = true
	}
	var hostList []string
	for _, h := range woc.Pages.Hosts() {
		if hosts[h] {
			hostList = append(hostList, h)
		}
	}
	return retired, hostList
}

// sourcedFrom reports whether any value of r names url as its source.
func sourcedFrom(r *lrec.Record, url string) bool {
	for _, k := range r.Keys() {
		for _, v := range r.All(k) {
			if v.Prov.SourceURL == url {
				return true
			}
		}
	}
	return false
}

// applyCandidates folds the delta extraction's collector back into the
// store, mirroring the build's resolveAndStore: candidates were filtered to
// the affected set and pre-merged by synthesized ID at fold time, and are
// now clustered per concept by the same collective matcher, with the
// cluster representatives upserted in sorted order. It reports whether any
// record of a link concept was touched, which forces a global relink pass.
func (b *Builder) applyCandidates(woc *WebOfConcepts, cg *conceptGroups, retired map[string]*lrec.Record, stats *RefreshStats) bool {
	linkable := make(map[string]bool, len(b.Cfg.LinkConcepts))
	for _, c := range b.Cfg.LinkConcepts {
		linkable[c] = true
	}
	linkDirty := false
	for _, rec := range retired {
		if linkable[rec.Concept] {
			linkDirty = true
		}
	}

	for _, concept := range cg.concepts() {
		recs := cg.take(concept, woc.Records)
		toStore := recs
		if m := b.Cfg.Matchers[concept]; m != nil {
			clusters := match.Resolve(recs, m, match.DefaultCollectiveOptions())
			toStore = make([]*lrec.Record, 0, len(clusters))
			for _, cl := range clusters {
				toStore = append(toStore, cl.Rep)
			}
		}
		for _, rec := range toStore {
			created, updated := b.upsert(woc, rec)
			if _, wasRetired := retired[rec.ID]; wasRetired && created == 1 {
				// A rebuilt record is an update of the retired one, not a
				// new entity.
				created, updated = 0, 1
			}
			stats.RecordsCreated += created
			stats.RecordsUpdated += updated
			if created+updated > 0 && linkable[concept] {
				linkDirty = true
			}
		}
	}
	return linkDirty
}

// relinkPass re-runs semantic linking (§5.4) after a delta rebuild. In the
// narrow mode only changed pages with no surviving association are scored —
// free-text pages whose new content mentions a (possibly different) subject.
// When a link-concept record changed (global), every linkable page is
// re-scored: the text matcher ranks record content, so a rebuilt record can
// win or lose pages the pass never fetched. Pages whose link outcome is
// unchanged are left untouched. Scoring fans out over the worker pool; the
// apply phase walks pages in sorted-URL order so seq assignment stays
// deterministic.
func (b *Builder) relinkPass(woc *WebOfConcepts, changed []*webgraph.Page, global bool, stats *RefreshStats) {
	if len(b.Cfg.LinkConcepts) == 0 {
		return
	}
	// extractionAssociated reports whether any of the page's associations is
	// justified by extraction — the page contributed a value to the record,
	// or is the record's homepage. The build links only pages the extract
	// stage left unassociated, so such a page is not linkable; a review it
	// holds from an earlier corpus state is stale.
	extractionAssociated := func(u string) bool {
		for _, id := range woc.Assoc[u] {
			rec, err := woc.Records.Get(id)
			if err != nil {
				continue
			}
			if sourcedFrom(rec, u) || rec.Get("homepage") == u {
				return true
			}
		}
		return false
	}
	// unlink severs the page→subject edge a review created, unless
	// extraction independently justifies the same edge (the rebuilt record
	// may now hold a value sourced from the page).
	unlink := func(u, about string) {
		if rec, err := woc.Records.Get(about); err == nil {
			if sourcedFrom(rec, u) || rec.Get("homepage") == u {
				return
			}
		}
		removeAssoc(woc.Assoc, u, about)
		removeAssoc(woc.RevAssoc, about, u)
	}

	var pending []string
	if global {
		// Linkable pages: unassociated ones (the build's link candidates)
		// plus pages holding a review record, which may need to move — or
		// go, if the page's rebuilt records absorbed it into extraction.
		for _, u := range woc.Pages.URLs() {
			if len(woc.Assoc[u]) == 0 {
				pending = append(pending, u)
				continue
			}
			if _, err := woc.Records.Get(reviewID(u)); err == nil {
				pending = append(pending, u)
			}
		}
	} else {
		for _, p := range changed {
			if len(woc.Assoc[p.URL]) == 0 {
				pending = append(pending, p.URL)
			}
		}
		sort.Strings(pending)
	}
	if len(pending) == 0 {
		return
	}
	hits, ok := b.scoreLinks(woc, pending, nil)
	if !ok {
		return
	}

	for i, u := range pending {
		h := hits[i]
		revID := reviewID(u)
		old, errOld := woc.Records.Get(revID)
		if extractionAssociated(u) {
			// The rebuilt records absorbed this page into extraction: it is
			// no longer a link candidate, and any review it held is stale.
			if errOld == nil {
				about := old.Get("about")
				if woc.Records.Delete(revID) == nil {
					unlink(u, about)
					stats.PagesRelinked++
				}
			}
			continue
		}
		if h == nil {
			// No subject any more: unlink, deleting the stale review.
			if errOld == nil {
				about := old.Get("about")
				if woc.Records.Delete(revID) == nil {
					unlink(u, about)
					stats.PagesRelinked++
				}
			}
			continue
		}
		if errOld == nil && old.Get("about") == h.recID && old.Get("text") == h.snippet {
			// Same subject, same snippet: the review stands, but re-assert
			// the link edges — retiring the subject severed them.
			woc.Assoc[u] = appendUnique(woc.Assoc[u], h.recID)
			woc.RevAssoc[h.recID] = appendUnique(woc.RevAssoc[h.recID], u)
			continue
		}
		if errOld == nil {
			unlink(u, old.Get("about"))
		}
		stats.PagesRelinked++
		woc.Assoc[u] = appendUnique(woc.Assoc[u], h.recID)
		woc.RevAssoc[h.recID] = appendUnique(woc.RevAssoc[h.recID], u)
		woc.Records.Put(reviewRecord(woc, u, h)) //nolint:errcheck // degraded store: link maps still converge
	}
}

// upsert folds one resolved record into the store: if entity matching finds
// an existing record of the same concept, the values merge into it;
// otherwise a new record is created.
func (b *Builder) upsert(woc *WebOfConcepts, rec *lrec.Record) (created, updated int) {
	if exist, err := woc.Records.Get(rec.ID); err == nil {
		exist.Merge(rec) //nolint:errcheck // same concept
		if woc.Records.Put(exist) == nil {
			b.associate(woc, exist)
			b.indexRecord(woc, exist)
			return 0, 1
		}
		return 0, 0
	}

	if m := b.Cfg.Matchers[rec.Concept]; m != nil {
		// Block against stored records of the concept and score. The
		// tie-break is pinned: ByConcept iterates in ascending ID order and
		// an incumbent is displaced only by a strictly higher score, so
		// equal-scoring candidates resolve to the lowest ID — keeping delta
		// refresh deterministic and independent of how later records were
		// numbered. (The previous `>=` silently meant highest-ID-wins.)
		var bestID string
		var bestScore float64
		incoming := m.Prepare(rec)
		for _, cand := range woc.Records.ByConcept(rec.Concept) {
			s := m.ScorePrepared(m.Prepare(cand), incoming)
			if s < m.Upper {
				continue
			}
			if bestID == "" || s > bestScore {
				bestScore, bestID = s, cand.ID
			}
		}
		if bestID != "" {
			exist, err := woc.Records.Get(bestID)
			if err == nil {
				exist.Merge(rec) //nolint:errcheck
				if woc.Records.Put(exist) == nil {
					b.associate(woc, exist)
					b.indexRecord(woc, exist)
					return 0, 1
				}
			}
			return 0, 0
		}
	}

	if woc.Records.Put(rec) == nil {
		b.associate(woc, rec)
		b.indexRecord(woc, rec)
		return 1, 0
	}
	return 0, 0
}

func removeString(list []string, v string) []string {
	out := list[:0]
	for _, x := range list {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// removeAssoc drops v from m[k], deleting the key when its list empties so
// a churned association map compares equal to a freshly built one (which
// never holds empty entries).
func removeAssoc(m map[string][]string, k, v string) {
	out := removeString(m[k], v)
	if len(out) == 0 {
		delete(m, k)
	} else {
		m[k] = out
	}
}

func (b *Builder) indexRecord(woc *WebOfConcepts, r *lrec.Record) {
	woc.RecIndex.Add(recordDocument(r))
}

// ConflictResolution names the policy Reconcile applies to over-full
// attributes.
type ConflictResolution int

// Policies.
const (
	// PreferSupport keeps the values backed by the most distinct sources,
	// breaking ties by recency then confidence.
	PreferSupport ConflictResolution = iota
	// PreferRecent keeps the most recently extracted values.
	PreferRecent
)

// Reconcile enforces the registry's multiplicity constraints on stored
// records of the concept: attributes holding more values than allowed are
// trimmed per the policy. It returns the number of records changed —
// the §7.3 "extracted information will often be inconsistent and will need
// to be reconciled to meet integrity constraints".
func (woc *WebOfConcepts) Reconcile(concept string, policy ConflictResolution) int {
	spec, ok := woc.Registry.Lookup(concept)
	if !ok {
		return 0
	}
	changed := 0
	for _, r := range woc.Records.ByConcept(concept) {
		// Trim a clone and adopt it only after the put succeeds: on a
		// degraded store the write fails, and the record every caller (and
		// this loop) observes must keep matching what the store holds —
		// trimming in place first would diverge memory from disk.
		var trimmed *lrec.Record
		for _, as := range spec.Attrs {
			if as.MaxValues <= 0 {
				continue
			}
			vals := r.All(as.Key)
			if len(vals) <= as.MaxValues {
				continue
			}
			if trimmed == nil {
				trimmed = r.Clone()
			}
			trimmed.Attrs[as.Key] = rankValues(vals, policy)[:as.MaxValues]
		}
		if trimmed != nil {
			if woc.Records.Put(trimmed) == nil {
				changed++
			}
		}
	}
	if changed > 0 {
		woc.BumpEpoch()
	}
	return changed
}

// rankValues orders attribute values best-first per the policy.
func rankValues(vals []lrec.AttrValue, policy ConflictResolution) []lrec.AttrValue {
	out := append([]lrec.AttrValue(nil), vals...)
	sort.SliceStable(out, func(i, j int) bool {
		switch policy {
		case PreferRecent:
			if out[i].Prov.Seq != out[j].Prov.Seq {
				return out[i].Prov.Seq > out[j].Prov.Seq
			}
		default:
			if out[i].Support != out[j].Support {
				return out[i].Support > out[j].Support
			}
			if out[i].Prov.Seq != out[j].Prov.Seq {
				return out[i].Prov.Seq > out[j].Prov.Seq
			}
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Lineage returns the human-readable provenance chains for every value of a
// record — the §7.3 "explanations to user queries".
func (woc *WebOfConcepts) Lineage(id string) ([]string, error) {
	r, err := woc.Records.Get(id)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range r.Keys() {
		for _, v := range r.All(k) {
			out = append(out, k+"="+v.Value+" <- "+v.Prov.String())
		}
	}
	return out, nil
}

// LiveValue re-reads a volatile attribute from its source document (§7.3:
// "some concepts, like stock tickers and city temperatures, are so dynamic
// that they always need to be tied to their underlying source documents").
// It follows the stored value's provenance to the page, refetches it, and
// re-extracts just that attribute. The store is left untouched; callers who
// want to persist the fresh value can Put it.
func (b *Builder) LiveValue(woc *WebOfConcepts, recordID, key string) (string, error) {
	rec, err := woc.Records.Get(recordID)
	if err != nil {
		return "", err
	}
	best, ok := rec.Best(key)
	if !ok || best.Prov.SourceURL == "" {
		return "", fmt.Errorf("core: no sourced value for %s.%s", recordID, key)
	}
	html, err := b.Fetcher.Fetch(best.Prov.SourceURL)
	if err != nil {
		return "", fmt.Errorf("core: live fetch %s: %w", best.Prov.SourceURL, err)
	}
	page := webgraph.NewPage(best.Prov.SourceURL, html)
	text := pageMainText(page)
	for _, d := range b.Cfg.Domains {
		if d.Concept != rec.Concept {
			continue
		}
		for _, r := range d.Recognizers {
			if r.Key != key {
				continue
			}
			if v, okm := r.Match(text); okm {
				return v, nil
			}
		}
	}
	return "", fmt.Errorf("core: attribute %q not found live on %s", key, best.Prov.SourceURL)
}
