//go:build !race

package sched

import (
	"testing"

	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// allocGuard measures its inner policy's Pick allocations once, mid-run,
// on a cluster with a sizeable runnable view, then delegates.
type allocGuard struct {
	t        *testing.T
	inner    sim.Scheduler
	picks    int
	measured bool
}

func (g *allocGuard) Name() string { return g.inner.Name() }
func (g *allocGuard) Pick(c *sim.Cluster) sim.Decision {
	g.picks++
	if !g.measured && g.picks >= 200 && len(c.Runnable()) >= 20 {
		g.measured = true
		if avg := testing.AllocsPerRun(100, func() { g.inner.Pick(c) }); avg != 0 {
			g.t.Errorf("%s.Pick allocated %.2f/op once warm", g.inner.Name(), avg)
		}
	}
	return g.inner.Pick(c)
}

// TestPickAllocationFree pins the //pcaps:hotpath contract of the paper's
// scheduler end to end: once its scratch has grown, a steady-state Pick
// of Decima and of PCAPS over it allocates nothing, memo writes included.
// Compiled out under -race, whose instrumentation perturbs allocation
// counts.
func TestPickAllocationFree(t *testing.T) {
	for _, s := range []sim.Scheduler{NewDecima(3), NewPCAPS(NewDecima(3), DefaultPCAPSGamma, 3)} {
		g := &allocGuard{t: t, inner: s}
		jobs := workload.Batch(workload.BatchConfig{N: 30, MeanInterarrival: 5, Mix: workload.MixBoth, Seed: 3})
		cfg := sim.Config{NumExecutors: 24, Trace: deTrace(t), Seed: 3, MoveDelay: 1}
		if _, err := sim.RunStream(cfg, &sim.SliceSource{Jobs: jobs}, g); err != nil {
			t.Fatal(err)
		}
		if !g.measured {
			t.Fatalf("%s: no Pick with a runnable view of 20 after 200 picks", s.Name())
		}
	}
}
