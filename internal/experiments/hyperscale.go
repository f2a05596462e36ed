package experiments

import (
	"fmt"

	"pcaps/internal/arrivals"
	"pcaps/internal/result"
	"pcaps/internal/sched"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func init() {
	register("hyperscale", "streaming engine at scale: jobs × executors × policies, memory-bounded", runHyperscale)
}

// hyperscaleMeanWork is the mean TPC-H job work in executor-seconds
// (uniform over the three paper scales), used to capacity-match the
// offered rate to the cluster size.
const hyperscaleMeanWork = (180.0 + 386.0 + 1261.0) / 3

// hyperscaleRho is the target utilization of each cell. It must stay
// below every policy's worst-case service capacity or the in-flight
// population — the quantity streaming memory is proportional to — grows
// with the job count instead of staying bounded: CAP's quota floor is
// half the cluster (below), so 0.4 leaves headroom even in its dirtiest
// carbon stretches.
const hyperscaleRho = 0.4

// hyperscaleCells is the full-mode scale matrix: the job-count and
// executor-count axes the roadmap names, crossed. Full mode is a
// deliberate heavyweight (the PCAPS 1M × 5000 cell dominates — Decima's
// Pick is linear in the in-flight population, which scales with the
// cluster under capacity-matched arrivals); budget on the order of an
// hour. -fast runs one small cell in seconds.
var hyperscaleCells = []struct{ jobs, execs int }{
	{100_000, 1000},
	{100_000, 5000},
	{1_000_000, 1000},
	{1_000_000, 5000},
}

// fastHyperscaleCells keeps the golden/fast path cheap while still
// exercising the same streaming machinery end to end.
var fastHyperscaleCells = []struct{ jobs, execs int }{
	{2000, 200},
}

// runHyperscale drives the streaming engine (sim.RunStream) through the
// scale matrix under FIFO, CAP, and PCAPS on the DE grid: jobs are
// admitted lazily from a capacity-matched constant arrival stream and
// retired as they complete, so even the million-job cells hold only the
// in-flight population in memory. Every reported number is a
// deterministic function of the cell seed (JCT quantiles are P² sketch
// estimates — DESIGN.md §10); wall-clock throughput and peak RSS live in
// BenchmarkHyperscaleStream, not here, so the artifact stays
// golden-stable.
func runHyperscale(opt Options) (*result.Artifact, error) {
	e := newEnv(opt.scoped("DE"))
	cells := hyperscaleCells
	if opt.Fast {
		cells = fastHyperscaleCells
	}
	policyNames := []string{"fifo", "cap", "pcaps"}
	newSched := func(k, execs int, seed int64) sim.Scheduler {
		switch k {
		case 0:
			return &sched.FIFO{}
		case 1:
			// Two departures from the paper defaults, both required for a
			// sustainable open-loop stream: the quota floor scales with
			// the cluster (DefaultCAPB = 20 is an absolute count tuned to
			// K = 100 and would throttle thousands of executors to a
			// sliver), and WorkConserving redirects picks the assignment
			// loop cannot act on — FIFO's head-of-line blocking under
			// carbon-scaled limits otherwise collapses CAP's service rate
			// to a single stage's width, unbounded backlog at any rho.
			cw := sched.NewCAP(&sched.FIFO{}, execs/2)
			cw.WorkConserving = true
			return cw
		default:
			return sched.NewPCAPS(sched.NewDecima(seed), sched.DefaultPCAPSGamma, seed)
		}
	}

	type runOut struct {
		stream *sim.StreamStats
		carbon float64
		ect    float64
		events int
	}
	runs := make([]runOut, len(cells)*len(policyNames))
	e.opt.pool.ForEach(len(runs), func(i int) {
		ci, pi := i/len(policyNames), i%len(policyNames)
		cell := cells[ci]
		seed := seed.Derive(e.opt.Seed, "DE", int64(cell.jobs), int64(cell.execs))
		rps := hyperscaleRho * float64(cell.execs) / hyperscaleMeanWork
		// Window the trace to the expected span; past its end the
		// intensity holds at the final sample (carbon.Trace.At clamps).
		windowHours := int(float64(cell.jobs)/rps/60) + 200
		tr := e.trialTrace("DE", windowHours, seed)
		cfg := sim.Config{
			NumExecutors: cell.execs,
			Trace:        tr,
			MoveDelay:    1,
			// ~tens of events per job across a million jobs: give the
			// livelock guard room well past the default 20M.
			MaxEvents: 2_000_000_000,
		}
		proc, err := arrivals.New(arrivals.Spec{Kind: arrivals.KindConstant, RPS: rps})
		if err != nil {
			panic(fmt.Sprintf("experiments: hyperscale: %v", err))
		}
		src, err := workload.NewSource(workload.GenConfig{
			N:        cell.jobs,
			Arrivals: proc,
			Mix:      workload.MixTPCH,
			Seed:     seed,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: hyperscale: %v", err))
		}
		res, err := sim.RunStream(cfg, src, newSched(pi, cell.execs, seed))
		if err != nil {
			panic(fmt.Sprintf("experiments: hyperscale: %v", err))
		}
		runs[i] = runOut{stream: res.Stream, carbon: res.CarbonGrams, ect: res.ECT, events: res.Events}
	})

	t := &result.Table{
		Name: "hyperscale",
		Columns: []result.Column{
			{Name: "jobs", Kind: result.KindInt, Header: "jobs", HeaderFormat: "%8s", Format: "%8d"},
			{Name: "executors", Kind: result.KindInt, Header: "execs", HeaderFormat: " %6s", Format: " %6d"},
			{Name: "scheduler", Kind: result.KindString, Header: "scheduler", HeaderFormat: " %-9s", Format: " %-9s"},
			{Name: "peak_inflight", Kind: result.KindInt, Header: "peak infl", HeaderFormat: " %9s", Format: " %9d"},
			{Name: "mean_inflight", Kind: result.KindFloat, Prec: 1, Header: "mean infl", HeaderFormat: " %9s", Format: " %9.1f"},
			{Name: "p50_jct_s", Kind: result.KindFloat, Prec: 0, Header: "p50 JCT", HeaderFormat: " %8s", Format: " %8.0f"},
			{Name: "p99_jct_s", Kind: result.KindFloat, Prec: 0, Header: "p99 JCT", HeaderFormat: " %8s", Format: " %8.0f"},
			{Name: "goodput_jobs_hr", Kind: result.KindFloat, Prec: 0, Header: "goodput/hr", HeaderFormat: " %10s", Format: " %10.0f"},
			{Name: "carbon_kg", Kind: result.KindFloat, Prec: 1, Header: "carbon kg", HeaderFormat: " %9s", Format: " %9.1f"},
			{Name: "events_m", Kind: result.KindFloat, Prec: 1, Header: "events M", HeaderFormat: " %8s", Format: " %8.1f"},
		},
	}
	for ci, cell := range cells {
		for pi, pol := range policyNames {
			r := runs[ci*len(policyNames)+pi]
			goodput := 0.0
			if r.ect > 0 {
				goodput = float64(r.stream.Admitted) / r.ect * 3600
			}
			t.Row(
				result.Int(cell.jobs), result.Int(cell.execs), result.Str(pol),
				result.Int(r.stream.PeakInFlight), result.Float(r.stream.MeanInFlight),
				result.Float(r.stream.P50JCT), result.Float(r.stream.P99JCT),
				result.Float(goodput), result.Float(r.carbon/1000),
				result.Float(float64(r.events)/1e6),
			)
		}
	}
	a := result.New()
	a.Textf("streaming engine, DE grid, constant arrivals at %.0f%% capacity:\n", hyperscaleRho*100)
	a.Add(t)
	a.Textf("peak/mean infl: in-flight jobs (the engine's memory bound); JCT quantiles are P² sketch estimates\n")
	return a, nil
}
