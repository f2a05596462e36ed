package experiments

import (
	"pcaps/internal/metrics"
	"pcaps/internal/result"
	"pcaps/internal/scenario"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func init() {
	register("table1", "carbon intensity trace characteristics", table1)
	register("table2", "prototype results summary (§6.3)", table2)
	register("table3", "simulator results summary (§6.4)", table3)
}

// paperTable1 holds the published Table 1 values for side-by-side
// rendering: min, max, mean, coefficient of variation.
var paperTable1 = map[string][4]float64{
	"PJM":   {293, 567, 425, 0.110},
	"CAISO": {83, 451, 274, 0.309},
	"ON":    {12, 179, 50, 0.654},
	"DE":    {130, 765, 440, 0.280},
	"NSW":   {267, 817, 647, 0.143},
	"ZA":    {586, 785, 713, 0.046},
}

// table1 regenerates Table 1: carbon-trace characteristics per grid,
// measured columns next to the paper's published quadruple.
func table1(opt Options) (*result.Artifact, error) {
	e := newEnv(opt)
	t := &result.Table{
		Name: "traces",
		Columns: []result.Column{
			{Name: "grid", Kind: result.KindString, Header: "grid", HeaderFormat: "%-6s", Format: "%-6s"},
			{Name: "min", Kind: result.KindFloat, Header: "min", HeaderFormat: " %9s", Format: " %9.0f"},
			{Name: "max", Kind: result.KindFloat, Header: "max", HeaderFormat: " %9s", Format: " %9.0f"},
			{Name: "mean", Kind: result.KindFloat, Header: "mean", HeaderFormat: " %9s", Format: " %9.0f"},
			{Name: "coeff_var", Kind: result.KindFloat, Prec: 3, Header: "coeff.var", HeaderFormat: " %10s", Format: " %10.3f"},
			{Name: "paper_min", Kind: result.KindFloat, Header: "paper(min/max/mean/cv)", HeaderFormat: "   %s", Format: "   %.0f"},
			{Name: "paper_max", Kind: result.KindFloat, Format: "/%.0f"},
			{Name: "paper_mean", Kind: result.KindFloat, Format: "/%.0f"},
			{Name: "paper_cv", Kind: result.KindFloat, Prec: 3, Format: "/%.3f"},
		},
	}
	for _, name := range e.opt.Grids {
		tr := e.traces[name]
		s := tr.Stats()
		p := paperTable1[name]
		t.Row(result.Str(name),
			result.Float(s.Min), result.Float(s.Max), result.Float(s.Mean), result.Float(s.CoeffVar),
			result.Float(p[0]), result.Float(p[1]), result.Float(p[2]), result.Float(p[3]))
	}
	a := result.New().Add(t)
	a.Textf("(%d hourly samples per grid; paper uses 26,304)\n", e.opt.Hours)
	return a, nil
}

// normTriple holds one scheduler's three Table 2/3 metrics, normalized to
// the experiment's baseline.
type normTriple struct {
	carbonPct float64 // CO2 reduction % (positive = reduction)
	ect, jct  float64 // ratios vs baseline
	n         int
}

func (a *normTriple) add(base, r *sim.Result) {
	a.carbonPct += -metrics.PercentChange(r.CarbonGrams, base.CarbonGrams)
	a.ect += r.ECT / base.ECT
	a.jct += r.AvgJCT / base.AvgJCT
	a.n++
}

func (a *normTriple) cells(name string) []result.Cell {
	n := float64(a.n)
	if a.n == 0 {
		n = 1
	}
	return []result.Cell{
		result.Str(name),
		result.Float(a.carbonPct / n), result.Float(a.ect / n), result.Float(a.jct / n),
	}
}

// schedulerTable is the shared Table 2/3 shape: one row per scheduler,
// three metrics normalized to the named baseline.
func schedulerTable(baseline string) *result.Table {
	return &result.Table{
		Name: "summary",
		Columns: []result.Column{
			{Name: "scheduler", Kind: result.KindString, Header: "scheduler", HeaderFormat: "%-14s", Format: "%-14s"},
			{Name: "co2_reduction_pct", Kind: result.KindFloat, Prec: 1, Header: "CO2 red.", HeaderFormat: " %13s", Format: " %12.1f%%"},
			{Name: "avg_ect", Kind: result.KindFloat, Prec: 3, Header: "avg ECT", HeaderFormat: " %10s", Format: " %10.3f"},
			{Name: "avg_jct", Kind: result.KindFloat, Prec: 3, Header: "avg JCT",
				HeaderFormat: " %10s   (normalized to " + baseline + ")", Format: " %10.3f"},
		},
	}
}

// matrixCell is one (grid, batch size, trial) coordinate of a table's
// experiment matrix.
type matrixCell struct {
	grid        string
	size, trial int
}

// matrixCells enumerates the full grid × size × trial matrix in rendering
// order; runners fan the cells out over the pool and fold the per-cell
// results back in this order, so aggregation is independent of which
// worker finishes first.
func matrixCells(grids []string, sizes []int, trials int) []matrixCell {
	cells := make([]matrixCell, 0, len(grids)*len(sizes)*trials)
	for _, grid := range grids {
		for _, size := range sizes {
			for trial := 0; trial < trials; trial++ {
				cells = append(cells, matrixCell{grid: grid, size: size, trial: trial})
			}
		}
	}
	return cells
}

// tableMatrix runs one scheduler set over the full matrix and averages
// each scheduler's metrics, normalized to names[0] (the baseline).
func tableMatrix(e *env, sizes []int, trials int, names []string,
	run func(c matrixCell, seed int64) map[string]*sim.Result) map[string]*normTriple {
	cells := matrixCells(e.opt.Grids, sizes, trials)
	runs := make([]map[string]*sim.Result, len(cells))
	e.opt.pool.ForEach(len(cells), func(i int) {
		c := cells[i]
		runs[i] = run(c, seed.Derive(e.opt.Seed, c.grid, int64(c.size), int64(c.trial)))
	})
	aggs := map[string]*normTriple{}
	for _, n := range names {
		aggs[n] = &normTriple{}
	}
	for _, rs := range runs {
		base := rs[names[0]]
		for _, n := range names {
			aggs[n].add(base, rs[n])
		}
	}
	return aggs
}

// tableSizes resolves the batch-size and trial axes shared by Tables 2/3.
func tableSizes(opt Options) (sizes []int, trials int) {
	sizes = []int{25, 50, 100}
	trials = opt.Trials
	if trials <= 0 {
		trials = 3
	}
	if opt.Fast {
		sizes = []int{25}
		trials = 1
	}
	if opt.Jobs > 0 {
		sizes = []int{opt.Jobs}
	}
	return sizes, trials
}

// table2 regenerates Table 2: prototype results averaged over the six
// grids, batch sizes {25,50,100}, metrics normalized to the
// Spark/Kubernetes default. Paper: Decima 1.2% / 0.857 / 0.852; CAP
// 24.7% / 1.126 / 1.996; PCAPS 32.9% / 1.013 / 1.381.
func table2(opt Options) (*result.Artifact, error) {
	e := newEnv(opt)
	sizes, trials := tableSizes(e.opt)
	names := []string{"default", "Decima", "CAP", "PCAPS"}
	aggs := tableMatrix(e, sizes, trials, names, func(c matrixCell, seed int64) map[string]*sim.Result {
		jobs := batch(c.size, 30, workload.MixBoth, seed)
		window := 60 + c.size // hours: generous for the batch
		tr := e.trialTrace(c.grid, window, seed)
		cfg := scenario.PrototypeConfig(tr)
		return map[string]*sim.Result{
			"default": mustRun(cfg, jobs, sched.NewKubeDefault()),
			"CAP":     mustRun(cfg, jobs, sched.NewCAP(sched.NewKubeDefault(), 20)),
			"Decima":  mustRun(cfg, jobs, sched.NewDecima(seed)),
			"PCAPS":   mustRun(cfg, jobs, sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed)),
		}
	})
	t := schedulerTable("default")
	for _, n := range names {
		t.Rows = append(t.Rows, aggs[n].cells(n))
	}
	a := result.New().Add(t)
	a.Textf("paper:        default 0%%/1.0/1.0 · Decima 1.2%%/0.857/0.852 · CAP 24.7%%/1.126/1.996 · PCAPS 32.9%%/1.013/1.381\n")
	return a, nil
}

// table3 regenerates Table 3: simulator results, normalized to Spark
// standalone FIFO. Paper carbon reductions: W.Fair 12.1%, Decima 21.5%,
// GreenHadoop 8.2%, CAP-FIFO 22.7%, CAP-W.Fair 34.2%, CAP-Decima 31.1%,
// PCAPS 39.7%.
func table3(opt Options) (*result.Artifact, error) {
	e := newEnv(opt)
	sizes, trials := tableSizes(e.opt)
	names := []string{"FIFO", "W.Fair", "Decima", "GreenHadoop", "CAP-FIFO", "CAP-W.Fair", "CAP-Decima", "PCAPS"}
	aggs := tableMatrix(e, sizes, trials, names, func(c matrixCell, seed int64) map[string]*sim.Result {
		jobs := batch(c.size, 30, workload.MixTPCH, seed)
		tr := e.trialTrace(c.grid, 60+c.size, seed)
		cfg := scenario.StandaloneConfig(tr)
		return map[string]*sim.Result{
			"FIFO":        mustRun(cfg, jobs, &sched.FIFO{}),
			"CAP-FIFO":    mustRun(cfg, jobs, sched.NewCAP(&sched.FIFO{}, 20)),
			"W.Fair":      mustRun(cfg, jobs, &sched.WeightedFair{}),
			"CAP-W.Fair":  mustRun(cfg, jobs, sched.NewCAP(&sched.WeightedFair{}, 20)),
			"Decima":      mustRun(cfg, jobs, sched.NewDecima(seed)),
			"CAP-Decima":  mustRun(cfg, jobs, sched.NewCAP(sched.NewDecima(seed), 20)),
			"PCAPS":       mustRun(cfg, jobs, sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed)),
			"GreenHadoop": mustRun(cfg, jobs, sched.NewGreenHadoop()),
		}
	})
	t := schedulerTable("FIFO")
	for _, n := range names {
		t.Rows = append(t.Rows, aggs[n].cells(n))
	}
	a := result.New().Add(t)
	a.Textf("paper CO2 red.: W.Fair 12.1%% · Decima 21.5%% · GreenHadoop 8.2%% · CAP-FIFO 22.7%% · CAP-W.Fair 34.2%% · CAP-Decima 31.1%% · PCAPS 39.7%%\n")
	a.Textf("paper ECT:      0.972 · 0.970 · 1.077 · 1.108 · 1.011(WF) · 1.061(Dec) · 1.045(PCAPS)\n")
	return a, nil
}
