package experiments

import (
	"pcaps/internal/ablation"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func init() {
	register("ablation", "design-choice ablations (DESIGN.md)", ablationReport)
	order = append(order, "ablation")
}

// ablationReport runs the DESIGN.md ablation suite: threshold shape,
// importance signal, parallelism scaling, forecast error, and the
// suspend-resume baseline, all against carbon-agnostic Decima on the DE
// grid.
func ablationReport(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	n := opt.Jobs
	if n <= 0 {
		n = 50
	}
	if opt.Fast {
		n = 25
	}
	tr := e.trialTrace("DE", 60+n, seed.Derive(e.opt.Seed, "DE", int64(n)))
	seed := e.opt.Seed
	jobs := batch(n, 30, workload.MixTPCH, seed)
	cfg := scenario.StandaloneConfig(tr)
	gamma := 0.6
	mk := func() sched.Probabilistic { return sched.NewDecima(seed) }
	variants := []sim.Scheduler{
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, Seed: seed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, Shape: ablation.ShapeLinear, Seed: seed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, Shape: ablation.ShapeStep, Seed: seed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, UniformImportance: true, Seed: seed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, DisableParallelismScaling: true, Seed: seed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, BoundsError: 0.05, Seed: seed},
		&ablation.FilterPCAPS{PB: mk(), Gamma: gamma, BoundsError: 0.15, Seed: seed},
		&ablation.SuspendResume{Inner: mk(), Theta: 0.5},
	}
	// Every entry is an independent simulation; hand Compare the pool's
	// fan-out so the suite spreads across the worker budget.
	outs, err := ablation.CompareWith(cfg, jobs, sched.NewDecima(seed), variants, e.opt.pool.ForEach)
	if err != nil {
		return nil, err
	}
	a := result.New().Add(ablation.Table(outs))
	a.Textf("(γ=%.1f, %d TPC-H jobs, DE grid; baseline row is carbon-agnostic Decima)\n"+
		"reading: exponential Ψγ with the precedence signal should pay the least ECT/JCT per unit of carbon saved;\n"+
		"importance-blind and suspend-resume variants save carbon but defer bottlenecks\n", gamma, n)
	return a, nil
}
