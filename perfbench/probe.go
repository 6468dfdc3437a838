package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"dice/internal/telemetry"
)

// runtimeCounters is a reading of the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes float64 // heap bytes allocated since process start
	gcCPU      float64 // CPU seconds spent in GC
	totalCPU   float64 // CPU seconds available to the process
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// since returns the allocation and GC-share deltas from r to now.
func (r runtimeCounters) since() (allocMB, gcShare float64) {
	now := readRuntime()
	allocMB = (now.allocBytes - r.allocBytes) / (1 << 20)
	if cpu := now.totalCPU - r.totalCPU; cpu > 0 {
		gcShare = (now.gcCPU - r.gcCPU) / cpu
	}
	return allocMB, gcShare
}

// liveHeapMB forces a full collection and returns the heap bytes still
// in use, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// holdTimer is the explorer's view of the router's state lock: a
// sync.Locker that records how long its holder kept the lock each time,
// so the stall a checkpoint imposes on the live update path is measured
// from outside the router. It is used from one goroutine only.
type holdTimer struct {
	mu    *sync.Mutex
	tr    *telemetry.Tracer
	since time.Time
	holds []time.Duration // one per hold since the last take
}

func (h *holdTimer) Lock() {
	h.mu.Lock()
	h.since = time.Now()
}

func (h *holdTimer) Unlock() {
	d := time.Since(h.since)
	h.mu.Unlock()
	h.holds = append(h.holds, d)
	h.tr.Add("explorer", "state lock held", h.since, d)
}

// take returns the holds recorded since the last call, oldest first.
func (h *holdTimer) take() []time.Duration {
	hs := h.holds
	h.holds = nil
	return hs
}
