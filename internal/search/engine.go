package search

import (
	"sort"
	"strings"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
)

// Engine is the concept-aware search engine of §5.1: classic BM25 document
// retrieval, augmented with concept-box triggering and record-association
// ranking features, all driven by the built web of concepts.
type Engine struct {
	Woc    *core.WebOfConcepts
	Parser *Parser
	// TriggerMargin is the confidence margin (top vs. runner-up record
	// score) required to show a concept box (default 1.15).
	TriggerMargin float64
	// HomepageBoost / AssocBoost are the ranking feature weights for
	// documents that are the triggered record's homepage / are associated
	// with it.
	HomepageBoost float64
	AssocBoost    float64
	// Metrics, when non-nil, receives query counters and latency histograms
	// for the engine's hot paths (search, concept search, aggregation).
	Metrics *obs.Registry
}

// NewEngine builds an engine over a built web of concepts.
func NewEngine(woc *core.WebOfConcepts, parser *Parser) *Engine {
	return &Engine{
		Woc: woc, Parser: parser,
		TriggerMargin: 1.15, HomepageBoost: 6, AssocBoost: 2,
	}
}

// ConceptBox is the Figure 1 artifact: the structured answer shown above the
// web results when the query references a known instance.
type ConceptBox struct {
	Record   *lrec.Record
	Name     string
	Address  string
	Phone    string
	Rating   string
	Homepage string
	// Reviews are snippets of linked review pages (up to 2).
	Reviews []string
	// Requested holds the attribute the query explicitly asked for
	// ("gochi menu" -> Key "menu"), when the record has it.
	Requested struct{ Key, Value string }
	// Confidence is the triggering confidence in (0,1].
	Confidence float64
}

// DocResult is one ranked web result with its concept annotations.
type DocResult struct {
	URL   string
	Score float64
	// RecordIDs are the records this document is associated with.
	RecordIDs []string
	// IsHomepage marks the official homepage of the triggered record.
	IsHomepage bool
}

// ResultPage is the full §5.1 search response.
type ResultPage struct {
	Query      Parsed
	Box        *ConceptBox
	Results    []DocResult
	Assistance []string
}

// Search answers a query with a concept box (when triggered), augmented
// document ranking, and query assistance.
func (e *Engine) Search(query string, k int) *ResultPage {
	defer e.Metrics.Time("search.latency")()
	e.Metrics.Counter("search.queries").Inc()
	parsed := e.Parser.Parse(query)
	page := &ResultPage{Query: parsed, Assistance: e.Parser.SuggestAssistance(parsed)}

	rec, conf := e.Trigger(parsed)
	if rec != nil {
		e.Metrics.Counter("search.box.triggered").Inc()
		page.Box = e.buildBox(rec, conf)
		// Attribute intent: surface the asked-for attribute directly in the
		// box (§3: "users explicitly search for different attributes of a
		// concept").
		if parsed.Attribute != "" {
			if v := rec.Get(parsed.Attribute); v != "" {
				page.Box.Requested.Key = parsed.Attribute
				page.Box.Requested.Value = v
			}
		}
	}

	page.Results = e.rankDocs(parsed, rec, k)
	return page
}

// Trigger decides whether the query references a specific known instance
// (§5.1: "deploy technology to trigger the special box when appropriate").
// It returns the record and a confidence, or (nil, 0).
func (e *Engine) Trigger(q Parsed) (*lrec.Record, float64) {
	if q.Kind == IntentSet || len(q.NameTokens) == 0 {
		return nil, 0
	}
	lookup := strings.Join(q.NameTokens, " ")
	if q.City != "" {
		lookup += " " + q.City
	}
	hits := e.Woc.RecIndex.Search(lookup, 3)
	if len(hits) == 0 {
		// Misspelled navigational queries ("gouchi cupertino") retrieve
		// nothing by token match; fall back to fuzzy name comparison.
		return e.fuzzyTrigger(q)
	}
	margin := e.TriggerMargin
	if len(hits) > 1 && hits[1].Score > 0 && hits[0].Score/hits[1].Score < margin {
		return nil, 0 // ambiguous: no box
	}
	rec, err := e.Woc.Records.Get(hits[0].ID)
	if err != nil {
		return nil, 0
	}
	// The record must actually cover the name tokens: BM25 can surface a
	// record matching only the city.
	name := textproc.Normalize(rec.Get("name") + " " + rec.Get("title") + " " + rec.FlatText())
	nameSet := textproc.TokenSet(textproc.StemAll(textproc.Tokenize(name)))
	matched := 0
	for _, t := range q.NameTokens {
		if nameSet[textproc.Stem(t)] {
			matched++
		}
	}
	cover := float64(matched) / float64(len(q.NameTokens))
	if cover < 0.5 {
		return nil, 0
	}
	// Geographic constraint must agree when both sides have one.
	if q.City != "" && rec.Has("city") &&
		textproc.Normalize(rec.Get("city")) != textproc.Normalize(q.City) {
		return nil, 0
	}
	conf := 0.5 + 0.5*cover
	return rec, conf
}

// fuzzyTrigger scans record names with trigram similarity — the recovery
// path for misspelled instance queries. The best name must be clearly
// similar and clearly ahead of the runner-up.
func (e *Engine) fuzzyTrigger(q Parsed) (*lrec.Record, float64) {
	e.Metrics.Counter("search.trigger.fuzzy").Inc()
	needle := textproc.Normalize(strings.Join(q.NameTokens, " "))
	if needle == "" {
		return nil, 0
	}
	// The needle's trigrams and the query city are fixed for the scan.
	needleTri := textproc.Trigrams(needle)
	city := textproc.Normalize(q.City)
	var best, second float64
	var bestRec *lrec.Record
	e.Woc.Records.Scan(func(r *lrec.Record) bool {
		name := r.Get("name")
		if name == "" {
			name = r.Get("title")
		}
		if name == "" {
			return true
		}
		if q.City != "" && r.Has("city") && textproc.Normalize(r.Get("city")) != city {
			return true
		}
		s := textproc.Dice(needleTri, textproc.Trigrams(textproc.Normalize(name)))
		switch {
		case s > best:
			second = best
			best, bestRec = s, r.Clone()
		case s > second:
			second = s
		}
		return true
	})
	if bestRec == nil || best < 0.55 || (second > 0 && best-second < 0.1) {
		return nil, 0
	}
	return bestRec, 0.4 + 0.4*best
}

func (e *Engine) buildBox(rec *lrec.Record, conf float64) *ConceptBox {
	box := &ConceptBox{
		Record:     rec,
		Name:       firstNonEmpty(rec.Get("name"), rec.Get("title")),
		Phone:      rec.Get("phone"),
		Rating:     rec.Get("rating"),
		Homepage:   rec.Get("homepage"),
		Confidence: conf,
	}
	var addr []string
	for _, k := range []string{"street", "city", "state", "zip"} {
		if v := rec.Get(k); v != "" {
			addr = append(addr, v)
		}
	}
	box.Address = strings.Join(addr, ", ")
	// Attach up to two linked reviews.
	for _, rv := range e.Woc.Records.ByAttr("review", "about", rec.ID) {
		if t := rv.Get("text"); t != "" {
			box.Reviews = append(box.Reviews, t)
			if len(box.Reviews) == 2 {
				break
			}
		}
	}
	return box
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// rankDocs runs BM25 over the document index and applies the §5.1 record
// features: documents associated with the triggered record move up, and the
// record's official homepage gets "preferential treatment by the ranker".
func (e *Engine) rankDocs(q Parsed, triggered *lrec.Record, k int) []DocResult {
	raw := e.Woc.DocIndex.Search(q.Raw, k*4+20)
	var homepage string
	if triggered != nil {
		homepage = strings.TrimSuffix(triggered.Get("homepage"), "/")
	}
	out := make([]DocResult, 0, len(raw))
	for _, hit := range raw {
		dr := DocResult{URL: hit.ID, Score: hit.Score, RecordIDs: e.Woc.AssocOf(hit.ID)}
		if triggered != nil {
			for _, id := range dr.RecordIDs {
				if id == triggered.ID {
					dr.Score += e.AssocBoost
					break
				}
			}
			if homepage != "" && (hit.ID == homepage || hit.ID == homepage+"/") {
				dr.Score += e.HomepageBoost
				dr.IsHomepage = true
			}
		}
		out = append(out, dr)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].URL < out[j].URL
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
