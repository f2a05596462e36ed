package experiments

import (
	"fmt"
	"strings"

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
	register("fig5", "48-hour carbon intensity snapshots (Fig 5)", fig5)
	register("fig6", "executor occupancy timelines, 5 executors / 20 jobs / DE (Fig 6)", fig6)
	register("fig9", "per-job carbon vs JCT scatter, prototype (Fig 9)", fig9)
	register("fig15", "standalone FIFO vs prototype default, identical batch (Fig 15 / A.1.2)", fig15)
}

// fig5 renders 48-hour snapshots of the six grids (Fig. 5): one series
// per grid carrying every hourly sample, with the text form showing
// every fourth value plus a sparkline.
func fig5(opt Options) (*result.Artifact, error) {
	e := newEnv(opt)
	a := result.New()
	const hours = 48
	for _, name := range e.opt.Grids {
		tr := e.traces[name]
		// A mid-January window: day 14 of the trace year.
		win := tr.Slice(14*24*tr.Interval, hours*tr.Interval)
		s := &result.Series{
			Name: name, XLabel: "hour", YLabels: []string{"gco2eq_per_kwh"},
			Prefix:      fmt.Sprintf("%-6s", name),
			PointFormat: " %4.0f", Every: 4,
			Suffix: "  (every 4th hour)\n",
		}
		for i, v := range win.Values {
			s.Point(float64(i), v)
		}
		a.Add(s)
		a.Textf("%s", "      "+sparkline(win.Values)+"\n")
	}
	a.Textf("paper: DE and CAISO swing widely over the day; ZA is nearly flat\n")
	return a, nil
}

// sparkline draws values as a row of density glyphs.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// occupancyStrip renders per-interval busy executor counts as digits.
func occupancyStrip(res *sim.Result, interval float64, k int, upTo int) string {
	var b strings.Builder
	for i := 0; i < upTo; i++ {
		occ := 0.0
		if i < len(res.Usage) {
			occ = res.Usage[i] / interval
		}
		d := int(occ + 0.5)
		if d > 9 {
			d = 9
		}
		if d == 0 {
			b.WriteString("·")
		} else {
			fmt.Fprintf(&b, "%d", d)
		}
	}
	return b.String()
}

// fig6 visualizes executor occupancy for Decima, PCAPS, and CAP-FIFO on a
// 5-executor cluster with 20 TPC-H jobs over 15 hours in the DE grid
// (Fig. 6). Each policy is one table row: the occupancy and dominant-job
// strips travel as string cells, the footprint numbers as floats.
func fig6(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	tr := e.traces["DE"].Slice(0, 200*60)
	seed := e.opt.Seed
	jobs := batch(20, 30, workload.MixTPCH, seed)
	cfg := scenario.StandaloneConfig(tr)
	cfg.NumExecutors = 5
	cfg.TrackJobUsage = true
	const hours = 40 // the experiment's visible window (paper shows 15)
	policies := []struct {
		name string
		s    sim.Scheduler
	}{
		{"Decima", sched.NewDecima(seed)},
		{"PCAPS", sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed)},
		{"CAP-FIFO", sched.NewCAP(&sched.FIFO{}, 1)},
	}
	results := make([]*sim.Result, len(policies))
	e.opt.pool.ForEach(len(policies), func(i int) {
		results[i] = mustRun(cfg, jobs, policies[i].s)
	})
	t := &result.Table{
		Name: "occupancy",
		Columns: []result.Column{
			{Name: "policy", Kind: result.KindString, Format: "%-9s"},
			{Name: "occupancy_strip", Kind: result.KindString, Format: " |%s|"},
			{Name: "carbon_grams", Kind: result.KindFloat, Format: " carbon=%6.0f g"},
			{Name: "ect_sec", Kind: result.KindFloat, Format: "  ECT=%5.0f s"},
			{Name: "dominant_job_strip", Kind: result.KindString,
				Format: "\n          |%s| (dominant job per hour)"},
		},
	}
	for i, p := range policies {
		r := results[i]
		t.Row(result.Str(p.name),
			result.Str(occupancyStrip(r, tr.Interval, 5, hours)),
			result.Float(r.CarbonGrams), result.Float(r.ECT),
			result.Str(dominantJobStrip(r, hours)))
	}
	a := result.New().Add(t)
	dec, pc, cap := results[0], results[1], results[2]
	a.Textf("%-9s |%s| (gCO2eq/kWh per hour)\n", "carbon", sparkline(tr.Values[:hours]))
	if pc.CarbonGrams >= dec.CarbonGrams || pc.CarbonGrams >= cap.CarbonGrams {
		a.Textf("note: paper shows PCAPS with the lowest footprint of the three\n")
	} else {
		a.Textf("as in the paper, PCAPS achieves the lowest footprint of the three schedules\n")
	}
	return a, nil
}

// fig9 regenerates the per-job scatter (Fig. 9): one point per trial of
// (normalized avg JCT, normalized per-job carbon) for moderate PCAPS and
// CAP in the prototype. The raw scatter travels as data-only series; the
// text keeps its historical quadrant/KDE summary, built as table rows
// (the KDE cells are absent when too few points support a fit).
func fig9(opt Options) (*result.Artifact, error) {
	e := newEnv(opt)
	trials := opt.Trials
	if trials <= 0 {
		trials = 4
	}
	if opt.Fast {
		trials = 2
	}
	n := opt.Jobs
	if n <= 0 {
		n = 50
	}
	// One cell per (grid, trial); every cell runs its own baseline plus
	// both policies, and the scatter points fold back in matrix order.
	type scatterCell struct {
		grid  string
		trial int
	}
	var cells []scatterCell
	for _, grid := range e.opt.Grids {
		for trial := 0; trial < trials; trial++ {
			cells = append(cells, scatterCell{grid: grid, trial: trial})
		}
	}
	type scatterRuns struct{ base, pc, cp *sim.Result }
	runs := make([]scatterRuns, len(cells))
	e.opt.pool.ForEach(len(cells), func(i int) {
		c := cells[i]
		seed := seed.Derive(e.opt.Seed, c.grid, int64(c.trial))
		jobs := batch(n, 30, workload.MixBoth, seed)
		tr := e.trialTrace(c.grid, 60+n, seed)
		cfg := scenario.PrototypeConfig(tr)
		runs[i] = scatterRuns{
			base: mustRun(cfg, jobs, sched.NewKubeDefault()),
			cp:   mustRun(cfg, jobs, sched.NewCAP(sched.NewKubeDefault(), 20)),
			pc:   mustRun(cfg, jobs, sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed)),
		}
	})
	var pcapsPts, capPts []metrics.Point
	for _, r := range runs {
		perJob := func(res *sim.Result) float64 { return res.CarbonGrams / float64(n) }
		pcapsPts = append(pcapsPts, metrics.Point{X: r.pc.AvgJCT / r.base.AvgJCT, Y: perJob(r.pc) / perJob(r.base)})
		capPts = append(capPts, metrics.Point{X: r.cp.AvgJCT / r.base.AvgJCT, Y: perJob(r.cp) / perJob(r.base)})
	}
	a := result.New()
	t := &result.Table{
		Name: "quadrants",
		Columns: []result.Column{
			{Name: "policy", Kind: result.KindString, Format: "%-6s"},
			{Name: "both_better_pct", Kind: result.KindFloat, Prec: 1, Format: " quadrants: both-better %.1f%%"},
			{Name: "carbon_only_pct", Kind: result.KindFloat, Prec: 1, Format: ", carbon-only %.1f%%"},
			{Name: "time_only_pct", Kind: result.KindFloat, Prec: 1, Format: ", time-only %.1f%%"},
			{Name: "both_worse_pct", Kind: result.KindFloat, Prec: 1, Format: ", both-worse %.1f%%"},
			{Name: "carbon_improved_pct", Kind: result.KindFloat, Prec: 1, Format: " (carbon improved: %.1f%%)"},
			{Name: "kde_mode_jct", Kind: result.KindFloat, Prec: 2, Format: "\n       KDE hot spot: JCT %.2f"},
			{Name: "kde_mode_carbon", Kind: result.KindFloat, Prec: 2, Format: ", per-job carbon %.2f"},
		},
	}
	addPolicy := func(name, seriesName string, pts []metrics.Point) {
		s := &result.Series{
			Name: seriesName, XLabel: "normalized_avg_jct",
			YLabels: []string{"normalized_per_job_carbon"},
		}
		for _, p := range pts {
			s.Point(p.X, p.Y)
		}
		a.Add(s)
		q := metrics.Quadrants(pts, 1, 1)
		row := []result.Cell{
			result.Str(name),
			result.Float(100 * q.BothBetter), result.Float(100 * q.CarbonOnly),
			result.Float(100 * q.TimeOnly), result.Float(100 * q.BothWorse),
			result.Float(100 * (q.BothBetter + q.CarbonOnly)),
		}
		if kde, err := metrics.NewKDE2D(pts); err == nil {
			m := kde.Mode(30)
			row = append(row, result.Float(m.X), result.Float(m.Y))
		}
		t.Rows = append(t.Rows, row)
	}
	addPolicy("PCAPS", "pcaps_scatter", pcapsPts)
	addPolicy("CAP", "cap_scatter", capPts)
	a.Add(t)
	a.Textf("paper: PCAPS improves per-job carbon in 95.8%% of trials and both metrics in 25.7%%; CAP both in 2.1%%\n")
	return a, nil
}

// dominantJobStrip renders, for each interval, a letter identifying the
// job with the largest executor usage — the per-job shading of Fig. 6
// ("each job is a unique shade of blue").
func dominantJobStrip(res *sim.Result, upTo int) string {
	var b strings.Builder
	for i := 0; i < upTo; i++ {
		best, bestU := -1, 0.0
		for jIdx, row := range res.JobUsage {
			if i < len(row) && row[i] > bestU {
				best, bestU = jIdx, row[i]
			}
		}
		if best < 0 {
			b.WriteString("·")
		} else {
			b.WriteByte(byte('a' + best%26))
		}
	}
	return b.String()
}

// jobsInSystem returns the number of arrived-but-incomplete jobs per
// carbon interval.
func jobsInSystem(jobs []*dag.Job, res *sim.Result, interval float64, upTo int) []int {
	out := make([]int, upTo)
	for i := range out {
		t0 := float64(i) * interval
		for j, job := range jobs {
			completion := job.Arrival + res.JCTs[j]
			if job.Arrival <= t0 && completion > t0 {
				out[i]++
			}
		}
	}
	return out
}

// fig15 regenerates the fidelity contrast of Appendix A.1.2: an identical
// batch of 50 TPC-H jobs under the simulator's standalone FIFO and the
// prototype's capped default, with occupancy and jobs-in-system
// timelines.
func fig15(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	seed := e.opt.Seed
	n := 50
	if opt.Fast {
		n = 25
	}
	jobs := batch(n, 30, workload.MixTPCH, seed)
	tr := e.traces["DE"]
	// The simulator and prototype runs are independent; run the pair
	// concurrently.
	pair := make([]*sim.Result, 2)
	e.opt.pool.ForEach(2, func(i int) {
		if i == 0 {
			pair[0] = mustRun(scenario.StandaloneConfig(tr), jobs, &sched.FIFO{})
		} else {
			pair[1] = mustRun(scenario.PrototypeConfig(tr), jobs, sched.NewKubeDefault())
		}
	})
	fifo, proto := pair[0], pair[1]
	hours := len(fifo.Usage)
	if len(proto.Usage) > hours {
		hours = len(proto.Usage)
	}
	a := result.New()
	strip := func(name string, r *sim.Result) {
		a.Textf("%-10s busy |%s| (0-9 ≈ 0-100 executors)\n", name,
			scaledOccupancy(r, tr.Interval, hours))
		sys := jobsInSystem(jobs, r, tr.Interval, hours)
		var sb strings.Builder
		for _, v := range sys {
			if v == 0 {
				sb.WriteString("·")
			} else if v > 9 {
				sb.WriteString("+")
			} else {
				fmt.Fprintf(&sb, "%d", v)
			}
		}
		a.Textf("%-10s jobs |%s|\n", name, sb.String())
	}
	strip("simulator", fifo)
	strip("prototype", proto)
	t := &result.Table{
		Name: "fidelity",
		Columns: []result.Column{
			{Name: "metric", Kind: result.KindString, Format: "%s"},
			{Name: "prototype_vs_simulator_pct", Kind: result.KindFloat, Prec: 1,
				Format: ": prototype vs simulator FIFO %+.1f%%"},
			{Name: "paper", Kind: result.KindString, Format: " (paper %s)"},
		},
	}
	t.Row(result.Str("carbon"),
		result.Float(metrics.PercentChange(proto.CarbonGrams, fifo.CarbonGrams)), result.Str("−18.8%"))
	t.Row(result.Str("avg JCT"),
		result.Float(metrics.PercentChange(proto.AvgJCT, fifo.AvgJCT)), result.Str("−22.1%"))
	a.Add(t)
	return a, nil
}

// scaledOccupancy renders busy executors on a 0-9 scale of the cluster
// size (100 executors).
func scaledOccupancy(res *sim.Result, interval float64, upTo int) string {
	var b strings.Builder
	for i := 0; i < upTo; i++ {
		occ := 0.0
		if i < len(res.Usage) {
			occ = res.Usage[i] / interval
		}
		d := int(occ/100*9 + 0.5)
		if d > 9 {
			d = 9
		}
		if d == 0 {
			b.WriteString("·")
		} else {
			fmt.Fprintf(&b, "%d", d)
		}
	}
	return b.String()
}
