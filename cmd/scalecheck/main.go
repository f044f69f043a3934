// Command scalecheck guards the scaling shape of the build against
// regression. It compares a freshly measured benchscale curve (the JSON
// emitted by `make benchscale`) against a committed baseline curve
// (BENCH_PR13.json): for every page count present in both, the ratio of
// link+resolve wall time to the rest of the pipeline (ingest + extract +
// index) must not exceed the baseline's ratio by more than a slack factor.
//
// The stage-time *ratio* rather than absolute milliseconds makes the check
// host-speed independent — a slower CI runner scales every stage together,
// but a reintroduced super-linear matching or resolution path inflates
// link+resolve *relative* to the linear stages, which is exactly what this
// catches. (A plain share-of-wall bound saturates: when link+resolve is
// already most of the build, share x slack exceeds 100% and the check
// becomes vacuous; the odds ratio keeps its sensitivity.)
//
// Usage:
//
//	scalecheck -curve bench-scale-smoke.json -baseline BENCH_PR13.json
//	           [-slack 1.5] [-grace 0.2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

type curve struct {
	Bench string `json:"bench"`
	Runs  []run  `json:"runs"`
}

type run struct {
	Profile      string           `json:"profile"`
	PagesPlanned int              `json:"pages_planned"`
	WallMS       int64            `json:"wall_ms"`
	PeakRSS      int64            `json:"peak_rss_bytes"`
	StageMS      map[string]int64 `json:"stage_ms"`
}

// stageRatio returns (link+resolve)/(ingest+crawl+extract+index) for a run,
// and false when the run carries no per-stage breakdown (curves recorded
// before stage_ms existed) or the linear stages measured zero.
func stageRatio(r run) (float64, bool) {
	if len(r.StageMS) == 0 {
		return 0, false
	}
	lr := r.StageMS["link"] + r.StageMS["resolve"]
	rest := r.StageMS["ingest"] + r.StageMS["crawl"] + r.StageMS["extract"] + r.StageMS["index"]
	if rest <= 0 {
		return 0, false
	}
	return float64(lr) / float64(rest), true
}

func load(path string) (*curve, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c curve
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func main() {
	log.SetFlags(0)
	curvePath := flag.String("curve", "bench-scale-smoke.json", "freshly measured scaling curve (make benchscale output)")
	basePath := flag.String("baseline", "BENCH_PR13.json", "committed baseline scaling curve")
	slack := flag.Float64("slack", 1.5, "allowed factor over the baseline link+resolve : linear-stage ratio")
	grace := flag.Float64("grace", 0.2, "absolute ratio grace added to the bound (absorbs timer noise on small stages)")
	flag.Parse()

	fresh, err := load(*curvePath)
	if err != nil {
		log.Fatalf("scalecheck: %v", err)
	}
	base, err := load(*basePath)
	if err != nil {
		log.Fatalf("scalecheck: %v", err)
	}

	baseByPages := make(map[int]run, len(base.Runs))
	for _, r := range base.Runs {
		baseByPages[r.PagesPlanned] = r
	}

	checked, failed := 0, 0
	for _, r := range fresh.Runs {
		ratio, ok := stageRatio(r)
		if !ok {
			log.Printf("scalecheck: skip %d pages: fresh run has no stage_ms breakdown", r.PagesPlanned)
			continue
		}
		b, found := baseByPages[r.PagesPlanned]
		if !found {
			log.Printf("scalecheck: skip %d pages: no baseline run at this size", r.PagesPlanned)
			continue
		}
		baseRatio, ok := stageRatio(b)
		if !ok {
			log.Printf("scalecheck: skip %d pages: baseline run has no stage_ms breakdown", r.PagesPlanned)
			continue
		}
		bound := baseRatio*(*slack) + *grace
		checked++
		status := "ok"
		if ratio > bound {
			status = "REGRESSION"
			failed++
		}
		fmt.Printf("scalecheck: %7d pages: link+resolve %.2fx the linear stages (baseline %.2fx, bound %.2fx) %s\n",
			r.PagesPlanned, ratio, baseRatio, bound, status)
	}
	if checked == 0 {
		log.Fatalf("scalecheck: no comparable runs between %s and %s", *curvePath, *basePath)
	}
	if failed > 0 {
		log.Fatalf("scalecheck: %d of %d sizes regressed past the link+resolve stage-ratio bound", failed, checked)
	}
	fmt.Printf("scalecheck: %d size(s) within bound\n", checked)
}
