package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"pcaps/internal/carbonapi"
	"pcaps/internal/dag"
	"pcaps/internal/sim"
)

// The decorators below are the benchmark's only tracing: each wraps one
// public layer boundary, forwards every call unchanged, and aggregates
// calls and time in memory. Nothing inside the program is instrumented.
// Aggregates rather than per-call spans keep the traced run's memory
// flat: a stream pass makes millions of Pick calls.

// span aggregates the calls through one layer boundary.
type span struct {
	calls int64
	dur   time.Duration
}

func (s *span) add(start time.Time) {
	s.calls++
	s.dur += time.Since(start)
}

// timedScheduler wraps a sim.Scheduler and times every Pick.
type timedScheduler struct {
	inner  sim.Scheduler
	pick   span
	defers int64
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Pick(c *sim.Cluster) sim.Decision {
	start := time.Now()
	d := t.inner.Pick(c)
	t.pick.add(start)
	if d.Defer {
		t.defers++
	}
	return d
}

// timedSource wraps a sim.JobSource and times every Next.
type timedSource struct {
	inner sim.JobSource
	next  span
}

func (t *timedSource) Next() (*dag.Job, error) {
	start := time.Now()
	j, err := t.inner.Next()
	t.next.add(start)
	return j, err
}

// heapProbe wraps a sim.JobSource and, at every `every`-th admission,
// reads the live heap. It serves the stream workloads' end-to-end heap
// metric, so it is present in the untraced run too. The heap is read
// right after a forced collection, which counts exactly the live
// objects: the stream's live heap is under a few MiB, and a concurrent
// collection's count of it also holds whatever the engine allocated
// while marking, which varied it by half from run to run.
type heapProbe struct {
	inner    sim.JobSource
	every    int
	n        int
	peakLive uint64
}

func (h *heapProbe) Next() (*dag.Job, error) {
	if h.n%h.every == 0 {
		h.peakLive = max(h.peakLive, liveHeap())
	}
	h.n++
	return h.inner.Next()
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedPlacements wraps a carbonapi.Placements backend and times every
// Place, split by request size: single-policy requests are "small",
// batches "large". Before forwarding it restores the request's snapshot
// once on its own and times that restore, which is the part of Place
// that depends on the snapshot's size; the backend then restores it
// again, so traced requests do that work twice. Safe for concurrent use.
type timedPlacements struct {
	inner carbonapi.Placements
	small placeSpans
	large placeSpans
}

type placeSpans struct {
	calls, placeNs, restoreNs atomic.Int64
}

func (t *timedPlacements) Place(ctx context.Context, req *carbonapi.PlacementRequest) ([]sim.Placement, error) {
	s := &t.small
	if len(req.Policies) > 0 {
		s = &t.large
	}
	if req.Snapshot != nil {
		start := time.Now()
		_, _ = req.Snapshot.Restore() // a bad snapshot is the backend's to reject
		s.restoreNs.Add(int64(time.Since(start)))
	}
	start := time.Now()
	out, err := t.inner.Place(ctx, req)
	s.placeNs.Add(int64(time.Since(start)))
	s.calls.Add(1)
	return out, err
}

// heapSampler polls the live heap (as of the last GC) in the background
// and keeps its peak per pass, for workloads whose peak falls inside
// calls the benchmark cannot split.
type heapSampler struct {
	stop, done chan struct{}
	peak       atomic.Uint64
	passPeaks  []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			for v := sample[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// startPass forgets the peak seen so far; endPass records the peak since.
func (h *heapSampler) startPass() { h.peak.Store(0) }

func (h *heapSampler) endPass() {
	h.passPeaks = append(h.passPeaks, float64(h.peak.Load())/(1<<20))
}

// Stop ends sampling and returns the median over passes of the peak live
// heap, in MiB. A median rather than the overall maximum: the live heap
// at one GC depends on which requests happen to be in flight.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return median(h.passPeaks)
}

// runtimeCounters reads the allocation and automatic-GC counters.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/automatic:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// perPass reports the counters' growth since base, per pass.
func (base runtimeCounters) perPass(passes int, layers map[string]float64) {
	now := readRuntime()
	layers["runtime.alloc_mib"] = float64(now.allocBytes-base.allocBytes) / (1 << 20) / float64(passes)
	layers["runtime.gc_cycles"] = float64(now.gcCycles-base.gcCycles) / float64(passes)
}

// repeat runs pass until at least minPasses ran and seconds have
// elapsed. Each pass starts from a collected heap, so one pass's garbage
// does not land in the next pass's time.
func repeat(seconds float64, minPasses int, pass func() error) (int, error) {
	start := time.Now()
	n := 0
	for n < minPasses || time.Since(start).Seconds() < seconds {
		runtime.GC()
		if err := pass(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// timeSetup runs setup at least 3 times and for at least setupSeconds,
// and returns the median duration in seconds; the state the last
// repetition built is the one measured. A stream's set-up takes a few
// milliseconds, so one sample would mostly measure host noise.
func timeSetup(setup func() error) (float64, error) {
	var d []float64
	start := time.Now()
	for len(d) < 3 || time.Since(start).Seconds() < setupSeconds {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t).Seconds())
	}
	return median(d), nil
}

// setupSeconds is how long timeSetup repeats set-up, at least.
const setupSeconds = 0.5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
