package core

import "conceptweb/internal/webgraph"

// PageSource streams a corpus page by page. Implementations (such as
// webgen.StreamWorld) generate or read pages on demand; BuildStream never
// asks for the whole corpus at once. Returning an error from emit aborts the
// stream and surfaces the error from StreamPages.
type PageSource interface {
	StreamPages(emit func(url, html string) error) error
}

// BuildStream constructs the web of concepts from a streamed page source.
// It differs from Build only in its first stage: pages are ingested straight
// into the page store as the source emits them — no crawl frontier, no
// []Page slice — and pairing it with Config.PageStore =
// webgraph.OpenDiskStore(...) keeps page bytes on disk, so memory is bounded
// by a site, never the corpus. Every later stage is the pipeline Build runs
// (see build), so for a corpus whose pages are all crawl-reachable the two
// produce identical stores, associations, and indexes (see
// buildstream_test.go).
func (b *Builder) BuildStream(src PageSource) (*WebOfConcepts, *BuildStats, error) {
	totalPages := 0
	if p, ok := src.(interface{ PlannedPages() int }); ok {
		totalPages = p.PlannedPages()
	}
	return b.build("ingest", func(woc *WebOfConcepts, stats *BuildStats) error {
		n := 0
		err := src.StreamPages(func(url, html string) error {
			woc.Pages.Put(webgraph.NewPage(url, html))
			if err := woc.Pages.Err(); err != nil {
				return err
			}
			n++
			if n%512 == 0 {
				b.progress("ingest", n, totalPages)
			}
			return nil
		})
		if err == nil {
			err = woc.Pages.Flush()
		}
		stats.PagesFetched = n
		b.progress("ingest", n, totalPages)
		return err
	})
}
