package pcaps_test

import (
	"runtime"
	"testing"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// hyperscaleBenchMeanWork mirrors the hyperscale artifact's capacity
// matching: the mean TPC-H job work in executor-seconds, uniform over
// the three paper scales.
const hyperscaleBenchMeanWork = (180.0 + 386.0 + 1261.0) / 3

// heapSampler wraps a job source and samples the live heap every
// `every` admissions. In a memory-bounded streaming run admissions and
// retirements interleave at the same pace, so admission-time samples see
// the steady-state high-water mark rather than only the post-run heap.
type heapSampler struct {
	src   sim.JobSource
	every int
	n     int
	peak  uint64
}

func (h *heapSampler) Next() (*dag.Job, error) {
	if h.n%h.every == 0 {
		h.sample()
	}
	h.n++
	return h.src.Next()
}

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

// hyperscaleStreamPeak drives one capacity-matched constant-arrival cell
// through the streaming engine and returns the sampled peak heap in MiB.
// Scale parameters follow the hyperscale artifact: 40% utilization on
// the DE grid, MixTPCH, with the trace windowed to the arrival span.
func hyperscaleStreamPeak(tb testing.TB, jobs, execs int, s sim.Scheduler) float64 {
	tb.Helper()
	rps := 0.4 * float64(execs) / hyperscaleBenchMeanWork
	hours := int(float64(jobs)/rps/3600) + 48
	grid, err := carbon.GridByName("DE")
	if err != nil {
		tb.Fatal(err)
	}
	tr := carbon.Synthesize(grid, hours, 60, 42)
	cfg := sim.Config{
		NumExecutors: execs,
		Trace:        tr,
		MoveDelay:    1,
		MaxEvents:    2_000_000_000,
	}
	proc, err := arrivals.New(arrivals.Spec{Kind: arrivals.KindConstant, RPS: rps})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := workload.NewSource(workload.GenConfig{
		N: jobs, Arrivals: proc, Mix: workload.MixTPCH, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	hs := &heapSampler{src: src, every: 10_000}
	res, err := sim.RunStream(cfg, hs, s)
	if err != nil {
		tb.Fatal(err)
	}
	hs.sample()
	if res.Stream == nil || res.Stream.Admitted != jobs {
		tb.Fatalf("stream stats missing or short: %+v", res.Stream)
	}
	if res.Stream.PeakInFlight >= jobs/10 {
		tb.Fatalf("in-flight population not bounded: peak %d of %d jobs", res.Stream.PeakInFlight, jobs)
	}
	return float64(hs.peak) / (1 << 20)
}

// TestHyperscaleScaleSmoke is the CI scale gate (scale-smoke job): a
// 100k-job stream on 1000 executors must hold the sampled peak heap
// under 256 MiB — memory proportional to the in-flight population, two
// orders below what materializing the batch plus per-job results would
// take. The CI job additionally runs this under GOMEMLIMIT=400MiB, so a
// regression that leaks per-job state OOMs loudly instead of paging.
func TestHyperscaleScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("hyperscale smoke is a scale gate; skipped in -short")
	}
	peak := hyperscaleStreamPeak(t, 100_000, 1000, &sched.FIFO{})
	t.Logf("peak sampled heap: %.1f MiB", peak)
	if peak > 256 {
		t.Fatalf("peak sampled heap %.1f MiB exceeds the 256 MiB scale gate", peak)
	}
}
