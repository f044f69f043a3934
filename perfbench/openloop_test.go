package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndHitsRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	// 10000 expected arrivals; a Poisson count's sd is 100.
	if n := len(a); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals at 1000/s over 10s", n)
	}
}

// TestStallRaisesLatencyOfQueuedRequests injects one stall and checks that
// the requests due while it lasted carry the wait in their latency — timed
// from their due time — even though each one, once sent, is instant. A
// generator timing from send would report them all as fast.
func TestStallRaisesLatencyOfQueuedRequests(t *testing.T) {
	const (
		n     = 60
		every = 2 * time.Millisecond
		stall = 40 * time.Millisecond
		at    = 10
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	res := runOpenLoop(time.Now(), due, 1, func(i int) error {
		if i == at {
			time.Sleep(stall)
		}
		return nil
	})
	if res[at].Latency < stall {
		t.Fatalf("stalled request latency %v < stall %v", res[at].Latency, stall)
	}
	// The request due right after the stall began waited most of it.
	next := res[at+1]
	if !next.Queued || next.Latency < stall-2*every {
		t.Fatalf("request behind the stall: queued=%v latency %v, want >= %v", next.Queued, next.Latency, stall-2*every)
	}
	if send := next.End.Sub(next.Start); send > stall/4 {
		t.Fatalf("request behind the stall took %v once sent; the test needs instant requests", send)
	}
	// Latency decays along the queue: each later request waited less.
	for i := at + 2; i < at+int(stall/every)-2; i++ {
		if res[i].Latency > res[i-1].Latency {
			t.Fatalf("request %d waited longer (%v) than the one before it (%v)", i, res[i].Latency, res[i-1].Latency)
		}
	}
	// Well after the backlog drained, requests are issued on time again.
	if tail := res[n-1]; tail.Latency > stall/4 {
		t.Fatalf("last request latency %v; the backlog should have drained", tail.Latency)
	}
	s := summarize(res)
	if s.Queued == 0 || s.Failed != 0 || s.Attempted != n {
		t.Fatalf("summary %+v", s)
	}
}

func TestClosedLoopCountsCalls(t *testing.T) {
	rates, n, failed := runClosedLoop(2, 4*capacityBlock, func(c, i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(rates) != 4 || n < 100 || failed != 0 {
		t.Fatalf("closed loop: %d calls, %d failed, block rates %v", n, failed, rates)
	}
	// Two callers sleeping 1ms per call complete at most 2000 calls/s.
	for _, r := range rates {
		if r <= 0 || r > 2000 {
			t.Fatalf("block rate %v outside (0, 2000]", r)
		}
	}
}
