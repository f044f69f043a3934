package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Runtime cost measured from outside the program: runtime/metrics samples
// taken at stage transitions (reported through core.Config.Progress) and
// over whole phases.

var rtSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

// rtSnap is one runtime/metrics reading.
type rtSnap struct {
	AllocBytes uint64
	GCCycles   uint64
	GCCPUSec   float64
	TotalCPU   float64
	HeapBytes  uint64
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSampleNames))
	for i, n := range rtSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		AllocBytes: s[0].Value.Uint64(),
		GCCycles:   s[1].Value.Uint64(),
		GCCPUSec:   s[2].Value.Float64(),
		TotalCPU:   s[3].Value.Float64(),
		HeapBytes:  s[4].Value.Uint64(),
	}
}

// rtCost is the runtime cost between two readings.
type rtCost struct {
	AllocMiB float64
	GCCycles float64
	GCCPUMs  float64
	// GCCPUShare is GC CPU over all CPU the runtime accounted in the span.
	GCCPUShare float64
}

func costBetween(a, b rtSnap) rtCost {
	c := rtCost{
		AllocMiB: float64(b.AllocBytes-a.AllocBytes) / (1 << 20),
		GCCycles: float64(b.GCCycles - a.GCCycles),
		GCCPUMs:  (b.GCCPUSec - a.GCCPUSec) * 1000,
	}
	if cpu := b.TotalCPU - a.TotalCPU; cpu > 0 {
		c.GCCPUShare = (b.GCCPUSec - a.GCCPUSec) / cpu
	}
	return c
}

// stageMeter turns core.Config.Progress callbacks into per-stage runtime
// cost: the first callback naming a stage not seen before closes the
// previous stage's span, and late callbacks of earlier stages are ignored,
// so spans only move forward. Progress fires from several goroutines, hence
// the lock.
type stageMeter struct {
	mu    sync.Mutex
	cur   string
	start rtSnap
	costs map[string]rtCost
	// spent is the time the meter itself took inside the hook: the direct
	// cost of tracing the build.
	spent time.Duration
}

func newStageMeter() *stageMeter {
	return &stageMeter{costs: map[string]rtCost{}}
}

// progress is the core.Config.Progress hook.
func (m *stageMeter) progress(stage string, done, total int) {
	t := time.Now()
	m.mu.Lock()
	defer func() {
		m.spent += time.Since(t)
		m.mu.Unlock()
	}()
	if _, seen := m.costs[stage]; seen {
		return
	}
	now := readRuntime()
	m.closeLocked(now)
	m.cur, m.start = stage, now
	m.costs[stage] = rtCost{}
}

// finish closes the last open stage.
func (m *stageMeter) finish() {
	t := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closeLocked(readRuntime())
	m.cur = ""
	m.spent += time.Since(t)
}

func (m *stageMeter) closeLocked(now rtSnap) {
	if m.cur == "" {
		return
	}
	m.costs[m.cur] = costBetween(m.start, now)
}

// heapWatch samples the live heap every interval until stopped and keeps
// the peak and the time its samples took.
type heapWatch struct {
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
	spent time.Duration
}

func watchHeap(interval time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			t0 := time.Now()
			if b := readRuntime().HeapBytes; b > h.peak {
				h.peak = b
			}
			h.spent += time.Since(t0)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak heap in MiB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// peakRSSMiB is the process's VmHWM (kernel high-water mark of resident
// memory) from /proc/self/status; 0 where that file does not exist.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the host's aggregate CPU time counters from /proc/stat:
// steal (time the hypervisor ran something else on this machine's CPUs)
// and the total. Zero where the file does not exist.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
