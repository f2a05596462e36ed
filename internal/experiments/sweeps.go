package experiments

import (
	"pcaps/internal/dag"
	"pcaps/internal/metrics"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func init() {
	register("fig7", "prototype PCAPS trade-off vs γ (Fig 7)", fig7)
	register("fig8", "prototype CAP trade-off vs B (Fig 8)", fig8)
	register("fig11", "simulator PCAPS trade-off vs γ (Fig 11)", fig11)
	register("fig12", "simulator CAP-FIFO trade-off vs B (Fig 12)", fig12)
	register("fig13", "PCAPS vs CAP-Decima trade-off frontier (Fig 13)", fig13)
}

// The four parameter sweeps are declared as scenario specs and compiled
// through internal/scenario — the same layer `pcapsim -scenario` runs
// user specs through. The sweep executes in the DE grid with 50-job
// batches (25 fast), each carbon-aware setting normalized against the
// trial's baseline run; the golden tests pin the compiled artifacts to
// the hand-written runners' bytes.

// sweepSpec assembles the shared sweep shape from the run options.
func sweepSpec(opt Options, name string, proto bool, mix workload.Mix,
	baseline, swept scenario.PolicySpec, label string, values []float64, note string) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Seed:     opt.Seed,
		Hours:    opt.Hours,
		Trials:   opt.Trials,
		Proto:    proto,
		Workload: scenario.WorkloadSpec{Mix: mix.String(), Jobs: opt.Jobs},
		Baseline: &baseline,
		Sweep: &scenario.SweepSpec{
			Grid:   "DE",
			Label:  label,
			Values: values,
			Policy: swept,
		},
		Notes: []string{note},
	}
}

var (
	pcapsDecima = scenario.PolicySpec{Kind: "pcaps", Inner: &scenario.PolicySpec{Kind: "decima"}}
	capKube     = scenario.PolicySpec{Kind: "cap", Inner: &scenario.PolicySpec{Kind: "kube-default"}}
	capFIFO     = scenario.PolicySpec{Kind: "cap", Inner: &scenario.PolicySpec{Kind: "fifo"}}
	gammaValues = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	bValues     = []float64{5, 20, 40, 60, 80}
)

// fig7 regenerates the prototype PCAPS γ-sweep: carbon reduction and
// relative ECT vs the Spark/Kubernetes default for five carbon-awareness
// settings (Fig. 7).
func fig7(opt Options) (*result.Artifact, error) {
	return runSpec(opt, sweepSpec(opt, "fig7", true, workload.MixBoth,
		scenario.PolicySpec{Kind: "kube-default"}, pcapsDecima, "γ", gammaValues,
		"paper: carbon savings grow with γ, steeply near γ→1, at the cost of longer ECT\n"))
}

// fig8 regenerates the prototype CAP B-sweep (Fig. 8).
func fig8(opt Options) (*result.Artifact, error) {
	return runSpec(opt, sweepSpec(opt, "fig8", true, workload.MixBoth,
		scenario.PolicySpec{Kind: "kube-default"}, capKube, "B", bValues,
		"paper: smaller B (stricter quota) saves more carbon but sacrifices more ECT than PCAPS\n"))
}

// fig11 regenerates the simulator PCAPS γ-sweep vs FIFO (Fig. 11).
func fig11(opt Options) (*result.Artifact, error) {
	return runSpec(opt, sweepSpec(opt, "fig11", false, workload.MixTPCH,
		scenario.PolicySpec{Kind: "fifo"}, pcapsDecima, "γ", gammaValues,
		"paper: savings improve with γ, most pronounced approaching 1\n"))
}

// fig12 regenerates the simulator CAP-FIFO B-sweep vs FIFO (Fig. 12).
func fig12(opt Options) (*result.Artifact, error) {
	return runSpec(opt, sweepSpec(opt, "fig12", false, workload.MixTPCH,
		scenario.PolicySpec{Kind: "fifo"}, capFIFO, "B", bValues,
		"paper: CAP-FIFO sacrifices more ECT than PCAPS for the same savings; the increase begins at milder settings\n"))
}

// trialState is one trial's stage-1 output in fig13's two-stage
// frontier: the shared batch and configuration plus the baseline run
// every stage-2 parameter point normalizes against.
type trialState struct {
	jobs []*dag.Job
	cfg  sim.Config
	base *sim.Result
}

// frontierSeries renders one method's trade-off cloud: x = relative ECT,
// y = carbon reduction %.
func frontierSeries(name, display string, pts []metrics.Point) *result.Series {
	s := &result.Series{
		Name: name, XLabel: "relative_ect", YLabels: []string{"carbon_reduction_pct"},
		Prefix:      display + " points (relative ECT, carbon red. %):\n",
		PointFormat: "  (%.3f, %5.1f)", WithX: true,
		Suffix: "\n",
	}
	for _, p := range pts {
		s.Point(p.X, p.Y)
	}
	return s
}

// fig13 regenerates the PCAPS vs CAP-Decima trade-off frontier: trials
// across γ ∈ [0.1, 1.0] and B ∈ {5, …, 85}, a cubic fit per method, and
// the paper's two frontier comparisons. The frontier's cross-method
// banding does not fit the declarative sweep shape, so it stays a
// hand-written runner.
func fig13(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	trials := opt.Trials
	if trials <= 0 {
		trials = 3
	}
	gammas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	bs := []int{5, 15, 25, 35, 45, 55, 65, 75, 85}
	n := 50
	if opt.Fast {
		trials = 1
		gammas = []float64{0.3, 0.6, 0.9}
		bs = []int{15, 45, 75}
		n = 25
	}
	// One cell per trial: the Decima baseline and every (γ, B) point run
	// over the trial's shared (cfg, jobs, seed). Folded back in
	// trial-major order, exactly the historical sample order.
	states := make([]trialState, trials)
	perTrial := len(gammas) + len(bs)
	runs := make([]*sim.Result, trials*perTrial)
	opt.pool.ForEach(trials, func(t int) {
		seed := seed.Derive(opt.Seed, "DE", int64(t))
		jobs := batch(n, 30, workload.MixTPCH, seed)
		tr := e.trialTrace("DE", 60+n, seed)
		cfg := scenario.StandaloneConfig(tr)
		states[t] = trialState{jobs: jobs, cfg: cfg, base: mustRun(cfg, jobs, sched.NewDecima(seed))}
		out := runs[t*perTrial : (t+1)*perTrial]
		for i, g := range gammas {
			out[i] = mustRun(cfg, jobs, sched.NewPCAPS(sched.NewDecima(seed), g, seed))
		}
		for i, b := range bs {
			out[len(gammas)+i] = mustRun(cfg, jobs, sched.NewCAP(sched.NewDecima(seed), b))
		}
	})
	var pcapsPts, capPts []metrics.Point // X = relative ECT, Y = carbon reduction %
	for t := 0; t < trials; t++ {
		base := states[t].base
		point := func(r *sim.Result) metrics.Point {
			return metrics.Point{X: r.ECT / base.ECT, Y: -metrics.PercentChange(r.CarbonGrams, base.CarbonGrams)}
		}
		for i := range gammas {
			pcapsPts = append(pcapsPts, point(runs[t*perTrial+i]))
		}
		for i := range bs {
			capPts = append(capPts, point(runs[t*perTrial+len(gammas)+i]))
		}
	}
	a := result.New()
	render := func(name, display string, pts []metrics.Point) {
		a.Add(frontierSeries(name, display, pts))
		if coef, err := metrics.PolyFit(pts, 3); err == nil {
			a.Textf("  cubic fit: %.1f %+.1fx %+.1fx² %+.1fx³\n", coef[0], coef[1], coef[2], coef[3])
		}
	}
	render("pcaps_frontier", "PCAPS", pcapsPts)
	render("cap_decima_frontier", "CAP-Decima", capPts)

	// The paper's two comparisons: mean ECT increase among trials with
	// 35-45% savings, and mean savings among trials with ECT +0-10%.
	band := func(pts []metrics.Point, loS, hiS float64) (float64, int) {
		var sum float64
		var n int
		for _, p := range pts {
			if p.Y >= loS && p.Y <= hiS {
				sum += (p.X - 1) * 100
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	savingsBand := func(pts []metrics.Point) (float64, int) {
		var sum float64
		var n int
		for _, p := range pts {
			if p.X >= 1.0 && p.X <= 1.10 {
				sum += p.Y
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	pe, pn := band(pcapsPts, 35, 45)
	ce, cn := band(capPts, 35, 45)
	a.Textf("ECT increase at 35-45%% savings: PCAPS %+.1f%% (n=%d) vs CAP-Decima %+.1f%% (n=%d); paper +7.9%% vs +42.7%%\n", pe, pn, ce, cn)
	ps, pn2 := savingsBand(pcapsPts)
	cs, cn2 := savingsBand(capPts)
	a.Textf("savings at ECT +0-10%%: PCAPS %.1f%% (n=%d) vs CAP-Decima %.1f%% (n=%d); paper 35.6%% vs 20.1%%\n", ps, pn2, cs, cn2)
	return a, nil
}
