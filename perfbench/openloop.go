package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop load generator. Requests arrive on a seeded Poisson schedule fixed
// before the run starts, so the offered load never adapts to how fast the
// system answers; each request's latency is timed from its due time, not
// from when a caller got round to sending it. A request that could not be
// issued on time because every caller was still busy therefore carries its
// queueing delay in its latency — the delay a user would have seen — instead
// of silently vanishing from the sample (coordinated omission).
//
// At most `callers` requests are in flight (callers default to nproc), so
// the generator adds no goroutine pile-up of its own to the system under
// test.

// spinMargin is how early a waiting caller wakes from its sleep before a due
// time; it spins the rest of the way, because a plain timer sleep overshoots
// by tens to hundreds of microseconds, which would swamp the cache-hit path.
const spinMargin = 300 * time.Microsecond

// maxLateP99 is the generator's own budget: if the p99 of how late idle
// callers issued their requests exceeds it, the generator fell behind its
// schedule and the run's latencies are not trustworthy. Callers share the
// process with the system under test, so a waking caller can wait up to a
// scheduler time slice (10ms) for a P; beyond twice that, the generator
// itself is the bottleneck.
const maxLateP99 = 20 * time.Millisecond

// poissonSchedule returns the due offsets of a Poisson arrival process with
// the given rate (requests per second) over dur. The same rng state yields
// the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// opResult is one scheduled request's outcome.
type opResult struct {
	// Due, Start and End are when the request was due, issued and done.
	Due, Start, End time.Time
	// Latency is completion minus due time.
	Latency time.Duration
	// Queued is set when the request was picked up after its due time
	// because every caller was busy; Late is how late an idle caller issued
	// a request it had been waiting for (the generator's own error) and is
	// zero for queued requests.
	Queued bool
	Late   time.Duration
	Err    error
}

// runOpenLoop issues do(i) for every due offset, relative to start, from at
// most callers goroutines, and returns one result per request.
func runOpenLoop(start time.Time, due []time.Duration, callers int, do func(i int) error) []opResult {
	res := make([]opResult, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				queued := !time.Now().Before(at)
				if !queued {
					waitUntil(at)
				}
				issued := time.Now()
				err := do(i)
				done := time.Now()
				r := &res[i]
				r.Due, r.Start, r.End = at, issued, done
				r.Latency = done.Sub(at)
				r.Queued = queued
				r.Err = err
				if !queued {
					r.Late = issued.Sub(at)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// waitUntil sleeps until shortly before t, then spins until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// openLoopSummary condenses a run's results.
type openLoopSummary struct {
	Attempted int
	Failed    int
	// LatencyMs is the ascending latency sample in ms; failed requests are
	// +Inf, so they count as beyond any percentile limit.
	LatencyMs []float64
	LateP99Ms float64
	Queued    int
	// Valid is false when the generator itself fell behind its schedule.
	Valid bool
}

func summarize(res []opResult) openLoopSummary {
	s := openLoopSummary{Attempted: len(res), LatencyMs: make([]float64, len(res))}
	var late []float64
	for i, r := range res {
		if r.Err != nil {
			s.Failed++
			s.LatencyMs[i] = math.Inf(1)
		} else {
			s.LatencyMs[i] = ms(r.Latency)
		}
		if r.Queued {
			s.Queued++
		} else {
			late = append(late, ms(r.Late))
		}
	}
	s.LatencyMs = sortedCopy(s.LatencyMs)
	if len(late) > 0 {
		s.LateP99Ms = percentile(sortedCopy(late), 99)
	}
	s.Valid = s.LateP99Ms <= ms(maxLateP99)
	return s
}

// capacityBlock is the window the closed loop counts completions in; the
// reported capacity is the median window's rate, so one stalled window
// (a GC cycle, a noisy neighbour) does not move it.
const capacityBlock = 250 * time.Millisecond

// runClosedLoop keeps callers goroutines issuing do back to back for dur
// and returns the completion rate of each capacityBlock window, how many
// calls completed and how many failed.
func runClosedLoop(callers int, dur time.Duration, do func(caller, i int) error) (rates []float64, ops, failed int) {
	blocks := make([]atomic.Int64, int(dur/capacityBlock))
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := do(c, i)
				b := int(time.Since(start) / capacityBlock)
				if b >= len(blocks) {
					return
				}
				if err != nil {
					errs.Add(1)
				}
				blocks[b].Add(1)
			}
		}(c)
	}
	wg.Wait()
	for i := range blocks {
		n := blocks[i].Load()
		ops += int(n)
		rates = append(rates, float64(n)/capacityBlock.Seconds())
	}
	return rates, ops, int(errs.Load())
}

// runEach calls do(i) for every i below n from callers goroutines, as fast
// as they go, and returns when all calls have.
func runEach(callers, n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}
