//go:build !race

package sched

import (
	"runtime"
	"slices"
	"testing"

	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// allocGuard records which Picks of its inner policy allocate, reading
// the allocator's counters around each call once measuring is on. The
// counters are process-wide, so a runtime goroutine's allocation can land
// in a measured window; only a Pick that allocates in two replays of the
// same trajectory is the policy's.
type allocGuard struct {
	inner     sim.Scheduler
	measuring bool
	picks     int
	allocing  []int
	ms        runtime.MemStats
}

func (g *allocGuard) Name() string { return g.inner.Name() }
func (g *allocGuard) Pick(c *sim.Cluster) sim.Decision {
	if !g.measuring {
		return g.inner.Pick(c)
	}
	// A run record computes its critical-path vector on first use, into
	// a backing array the record pool recycles; that growth is the
	// engine's, so it happens before the measured call.
	for _, j := range c.ActiveJobs() {
		j.CriticalPathWork()
	}
	runtime.ReadMemStats(&g.ms)
	before := g.ms.Mallocs
	d := g.inner.Pick(c)
	runtime.ReadMemStats(&g.ms)
	if g.ms.Mallocs != before {
		g.allocing = append(g.allocing, g.picks)
	}
	g.picks++
	return d
}

// TestPickAllocationFree pins the //pcaps:hotpath contract of the paper's
// scheduler end to end: once the sampler's tree has grown to its
// high-water mark, every Pick of Decima and of PCAPS over it allocates
// nothing, on a stream that admits and retires jobs throughout. The
// first pass grows the scratch; the next two replay the same trajectory
// (the sampling streams restart from their seeds) and measure each Pick.
// The tree is sized by the in-flight jobs, not the total.
// Compiled out under -race, whose instrumentation perturbs allocation
// counts.
func TestPickAllocationFree(t *testing.T) {
	d, pd := NewDecima(3), NewDecima(3)
	p := NewPCAPS(pd, DefaultPCAPSGamma, 3)
	for _, tc := range []struct {
		s      sim.Scheduler
		dist   *softmax
		reseed func()
	}{
		{d, &d.dist, func() { d.rng.Seed(d.Seed) }},
		{p, &pd.dist, func() { p.rng.Seed(p.Seed) }},
	} {
		g := &allocGuard{inner: tc.s}
		jobs := workload.Batch(workload.BatchConfig{N: 40, MeanInterarrival: 25, Mix: workload.MixBoth, Seed: 3})
		cfg := sim.Config{NumExecutors: 24, Trace: deTrace(t), MoveDelay: 1}
		var allocing [][]int
		for pass := range 3 {
			if pass > 0 {
				g.measuring, g.picks, g.allocing = true, 0, nil
				tc.reseed()
			}
			res, err := sim.RunStream(cfg, &sim.SliceSource{Jobs: jobs}, g)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				continue
			}
			allocing = append(allocing, g.allocing)
			if pass < 2 {
				continue
			}
			for _, pick := range allocing[0] {
				if slices.Contains(allocing[1], pick) {
					t.Errorf("%s: Pick %d of %d allocated in both replays", tc.s.Name(), pick, g.picks)
				}
			}
			peak := res.Stream.PeakInFlight
			if res.Stream.RecycledRuns == 0 || peak >= len(jobs)/2 {
				t.Fatalf("%s: %d records recycled, peak %d in flight of %d jobs; the stream does not churn",
					tc.s.Name(), res.Stream.RecycledRuns, peak, len(jobs))
			}
			if n := cap(tc.dist.nodes); n >= 2*peak {
				t.Errorf("%s: tree of %d nodes for at most %d jobs in flight", tc.s.Name(), n, peak)
			}
		}
	}
}
