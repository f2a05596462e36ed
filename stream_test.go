package pcaps_test

import (
	"encoding/json"
	"testing"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// TestRunStreamMatchesRun pins the tentpole equivalence contract of the
// hyperscale mode (DESIGN.md §10): for any (seed, policy, arrival shape)
// cell, draining a workload.Source through sim.RunStream produces the
// same summary as materializing the batch and running sim.Run on it —
// canonical-JSON-identical with PerJobOn, which sums AvgJCT in
// batch order on both sides. Both entry points drive one event loop, so
// the Stream block matches too.
func TestRunStreamMatchesRun(t *testing.T) {
	trace := carbon.SynthesizeAll(48, 60, 42)["CAISO"]
	mustProc := func(s arrivals.Spec) arrivals.Process {
		p, err := arrivals.New(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	shapes := []struct {
		name string
		proc arrivals.Process
	}{
		{"poisson", arrivals.Poisson{MeanSec: 20}},
		{"constant", mustProc(arrivals.Spec{Kind: arrivals.KindConstant, RPS: 0.05})},
		{"burst", mustProc(arrivals.Spec{Kind: arrivals.KindBurst, RPS: 0.02, PeakRPS: 0.4, PeriodSec: 600, BurstSec: 120})},
	}
	policies := []struct {
		name string
		make func(seed int64) sim.Scheduler
		hold bool
	}{
		{"fifo-hold", func(int64) sim.Scheduler { return &sched.FIFO{} }, true},
		{"cap-fifo", func(int64) sim.Scheduler { return sched.NewCAP(&sched.FIFO{}, 10) }, false},
		{"pcaps-decima", func(seed int64) sim.Scheduler {
			return sched.NewPCAPS(sched.NewDecima(seed), 0.9, seed)
		}, false},
	}
	for _, seed := range []int64{1, 7} {
		for _, shape := range shapes {
			for _, pol := range policies {
				t.Run(shape.name+"/"+pol.name, func(t *testing.T) {
					t.Parallel()
					gen := workload.GenConfig{
						N:        40,
						Arrivals: shape.proc,
						Mix:      workload.MixTPCH,
						Seed:     seed,
					}
					jobs, err := workload.Generate(gen)
					if err != nil {
						t.Fatal(err)
					}
					cfg := sim.Config{
						NumExecutors:  16,
						Trace:         trace,
						MoveDelay:     1,
						PerJobCap:     25,
						Seed:          seed,
						PerJobResults: sim.PerJobOn,
					}
					if pol.hold {
						cfg.HoldExecutors = true
						cfg.IdleTimeout = 60
						cfg.LegacyHoldWakeups = true
					}
					classic, err := sim.Run(cfg, jobs, pol.make(seed))
					if err != nil {
						t.Fatal(err)
					}
					src, err := workload.NewSource(gen)
					if err != nil {
						t.Fatal(err)
					}
					streamed, err := sim.RunStream(cfg, src, pol.make(seed))
					if err != nil {
						t.Fatal(err)
					}
					if streamed.Stream == nil || streamed.Stream.Admitted != gen.N {
						t.Fatalf("stream stats missing or short: %+v", streamed.Stream)
					}
					want, _ := json.Marshal(classic)
					got, _ := json.Marshal(streamed)
					if string(want) != string(got) {
						t.Fatalf("streamed summary diverged from classic:\nclassic: %s\nstream:  %s", want, got)
					}
				})
			}
		}
	}
}
