package main

import (
	"encoding/json"
	"fmt"
	"time"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// The stream workloads use the hyperscale artifact's cell shape: TPC-H
// jobs arriving at a constant rate that offers 40% of the capacity of
// 1000 executors, on a synthesized DE trace, with a 1 s executor move
// delay.
//
// The seed drives the job stream and the scheduler's sampling; the
// trace is synthesized from a fixed seed. PCAPS defers work through the
// trace's dirty stretches, so the backlog it builds, and with it the
// cost of every Pick, follows the trace: with the trace seeded too, one
// 4000-job pass took 15.7 to 29.4 s across five seeds, against 18.2 to
// 20.2 s with this fixed trace.
const (
	streamTraceSeed = 12345

	streamExecutors = 1000
	streamRho       = 0.4
	// tpchMeanWork is the mean TPC-H job work in executor-seconds,
	// uniform over the three paper scales.
	tpchMeanWork = (180.0 + 386.0 + 1261.0) / 3
	// heapProbes is the number of times one pass reads the live heap,
	// at every jobs/heapProbes-th admission.
	heapProbes = 20
)

// Job counts per pass. FIFO's Pick is trivial, so 50k jobs take about
// 3.5 s on a 2-CPU host; PCAPS samples Decima's distribution over the
// whole in-flight set, so 3000 jobs take about 15 s. Fewer PCAPS jobs
// cover too few simulated days to be steady: at 2000 jobs a pass took
// 6.0 to 8.4 s across five seeds.
const (
	fifoJobs  = 50_000
	pcapsJobs = 3_000
)

func runStreamFIFO(rc runConfig) (*outcome, error) {
	return runStream(rc, fifoJobs, func(int64) sim.Scheduler { return &sched.FIFO{} })
}

func runStreamPCAPS(rc runConfig) (*outcome, error) {
	return runStream(rc, pcapsJobs, newPCAPS)
}

func newPCAPS(seed int64) sim.Scheduler {
	return sched.NewPCAPS(sched.NewDecima(seed), sched.DefaultPCAPSGamma, seed)
}

// streamInputs is everything one stream pass needs; the program sees
// only these generated inputs.
type streamInputs struct {
	cfg      sim.Config
	gen      workload.GenConfig
	newSched func(seed int64) sim.Scheduler
}

// newStreamInputs synthesizes the DE trace over the stream's span and
// sets up the seeded job stream.
func newStreamInputs(jobs int, seed int64, newSched func(int64) sim.Scheduler) (*streamInputs, error) {
	rps := streamRho * streamExecutors / tpchMeanWork
	grid, err := carbon.GridByName("DE")
	if err != nil {
		return nil, err
	}
	// One trace sample lasts 60 s of experiment time; past the end the
	// intensity holds at the last sample.
	samples := int(float64(jobs)/rps/60) + 200
	proc, err := arrivals.New(arrivals.Spec{Kind: arrivals.KindConstant, RPS: rps})
	if err != nil {
		return nil, err
	}
	in := &streamInputs{
		cfg: sim.Config{
			NumExecutors: streamExecutors,
			Trace:        carbon.Synthesize(grid, samples, 60, streamTraceSeed),
			MoveDelay:    1,
			Seed:         seed,
			MaxEvents:    2_000_000_000,
		},
		gen:      workload.GenConfig{N: jobs, Arrivals: proc, Mix: workload.MixTPCH, Seed: seed},
		newSched: newSched,
	}
	if _, err := workload.NewSource(in.gen); err != nil {
		return nil, err
	}
	return in, nil
}

// streamPass is one measured RunStream over the whole source.
type streamPass struct {
	res *sim.Result
	// sim is res as canonical JSON, which repeats of one seed must match.
	sim  string
	wall time.Duration
	// heapMiB is the largest live heap a probe saw.
	heapMiB float64
	// sched and src are the timing decorators of a traced pass.
	sched *timedScheduler
	src   *timedSource
}

func (in *streamInputs) pass(traced bool) (*streamPass, error) {
	src, err := workload.NewSource(in.gen)
	if err != nil {
		return nil, err
	}
	p := &streamPass{}
	var js sim.JobSource = src
	s := in.newSched(in.cfg.Seed)
	if traced {
		p.src = &timedSource{inner: js}
		p.sched = &timedScheduler{inner: s}
		js, s = p.src, p.sched
	}
	probe := &heapProbe{inner: js, every: max(1, in.gen.N/heapProbes)}
	start := time.Now()
	res, err := sim.RunStream(in.cfg, probe, s)
	p.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encoding the simulation result: %w", err)
	}
	p.res, p.sim, p.heapMiB = res, string(b), float64(probe.peakLive)/(1<<20)
	return p, nil
}

func runStream(rc runConfig, jobs int, newSched func(int64) sim.Scheduler) (*outcome, error) {
	var in *streamInputs
	setup, err := timeSetup(func() (err error) {
		in, err = newStreamInputs(jobs, rc.seed, newSched)
		return err
	})
	if err != nil {
		return nil, err
	}

	var passes []*streamPass
	base := readRuntime()
	n, err := repeat(rc.seconds, 2, func() error {
		p, err := in.pass(rc.traced)
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return nil, err
	}

	o := &outcome{layers: map[string]float64{}}
	first := passes[0]
	var walls, peaks, perKJobs []float64
	var pickCalls, defers int64
	var pickTime, nextTime, selfTime time.Duration
	var nextCalls int64
	for _, p := range passes {
		o.attempted += jobs
		o.failed += jobs - p.res.Stream.Admitted
		if p.res.Stream.Admitted == jobs && p.sim != first.sim {
			o.failed += jobs // a repeat of one seed must simulate bit-identically
		}
		walls = append(walls, p.wall.Seconds())
		peaks = append(peaks, p.heapMiB)
		perKJobs = append(perKJobs, ms(p.wall)*1000/float64(jobs))
		if p.sched != nil {
			pickCalls += p.sched.pick.calls
			defers += p.sched.defers
			pickTime += p.sched.pick.dur
			nextCalls += p.src.next.calls
			nextTime += p.src.next.dur
			selfTime += p.wall - p.sched.pick.dur - p.src.next.dur
		}
	}
	// A stream's latency samples are its passes, in host ms per 1000
	// jobs. The host time of a block of jobs within a pass follows
	// PCAPS's backlog, which rises and drains with each dirty stretch of
	// the trace, so the median block sits between those regimes. Across
	// seven seeds its quartile distance was 13% to 44% of its median at
	// 10 to 200 blocks a pass, against 3% for whole passes.
	o.finish(setup, walls, latencies{perKJobs}, median(peaks))
	wall := o.e2e["wall_s"]

	r := first.res
	o.sim = first.sim
	o.derived = []derivedFigure{
		{"jobs_per_s", float64(jobs) / wall, "jobs/s"},
		{"carbon_kg", r.CarbonGrams / 1000, "kg"},
		{"avg_jct_s", r.AvgJCT, "s"},
		{"p99_jct_s", r.Stream.P99JCT, "s"},
		{"failed_frac", float64(o.failed) / float64(o.attempted), "ratio"},
		{"passes", float64(n), "count"},
	}
	l := o.layers
	l["sim.events"] = float64(r.Events)
	l["sim.peak_inflight"] = float64(r.Stream.PeakInFlight)
	l["sim.mean_inflight"] = r.Stream.MeanInFlight
	l["sim.recycled_runs"] = float64(r.Stream.RecycledRuns)
	l["sim.deferrals"] = float64(r.Deferrals)
	l["sim.carbon_kg"] = r.CarbonGrams / 1000
	l["sim.avg_jct_s"] = r.AvgJCT
	l["sim.p99_jct_s"] = r.Stream.P99JCT
	if rc.traced {
		k := float64(n)
		l["sched.pick_calls"] = float64(pickCalls) / k
		l["sched.pick_s"] = pickTime.Seconds() / k
		l["sched.pick_ns_mean"] = float64(pickTime.Nanoseconds()) / float64(pickCalls)
		l["sched.defer_ratio"] = float64(defers) / float64(pickCalls)
		l["workload.next_calls"] = float64(nextCalls) / k
		l["workload.next_s"] = nextTime.Seconds() / k
		l["sim.self_s"] = selfTime.Seconds() / k
		l["sim.ns_per_event"] = float64(selfTime.Nanoseconds()) / k / float64(r.Events)
		base.perPass(n, l)
	}
	return o, nil
}
