package sim_test

import (
	"fmt"
	"math"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// memoOracle compares every active job's memoized remaining work and
// critical-path vector, bit for bit, with fresh computations: the stage
// loop RemainingWork memoizes and dag.Job.CriticalPathWorkDown, which is
// kept per DAG since the DAG never changes.
type memoOracle struct {
	t  *testing.T
	cp map[*dag.Job][]float64
}

func newMemoOracle(t *testing.T) *memoOracle {
	return &memoOracle{t: t, cp: map[*dag.Job][]float64{}}
}

// check runs the comparison; where and n label a failure.
func (o *memoOracle) check(c *sim.Cluster, where string, n int) {
	o.t.Helper()
	for _, j := range c.ActiveJobs() {
		var want float64
		for _, s := range j.Stages {
			want += float64(s.Stage.NumTasks-s.Completed) * s.Stage.TaskDuration
		}
		if got := j.RemainingWork(); math.Float64bits(got) != math.Float64bits(want) {
			o.t.Fatalf("%s %d: job %d at t=%v: RemainingWork %v, fresh loop %v", where, n, j.Job.ID, c.Now(), got, want)
		}
		wantCP, ok := o.cp[j.Job]
		if !ok {
			wantCP = j.Job.CriticalPathWorkDown()
			o.cp[j.Job] = wantCP
		}
		cp := j.CriticalPathWork()
		if len(cp) != len(wantCP) {
			o.t.Fatalf("%s %d: job %d: %d critical-path entries for %d stages", where, n, j.Job.ID, len(cp), len(wantCP))
		}
		for i := range cp {
			if math.Float64bits(cp[i]) != math.Float64bits(wantCP[i]) {
				o.t.Fatalf("%s %d: job %d stage %d: critical path %v, want %v", where, n, j.Job.ID, i, cp[i], wantCP[i])
			}
		}
	}
}

// TestRunRecordMemosMatchFreshComputation is the oracle for the memos on
// the engine's run records: under every registry policy, with failure
// injection on so retried attempts run too, each active job's memoized
// remaining work and critical-path vector must equal a fresh computation
// at every Pick, and in Run also after every event (through
// Config.Observer, which RunStream does not take). A mid-run snapshot's
// restored cluster is checked before and after a Place.
func TestRunRecordMemosMatchFreshComputation(t *testing.T) {
	t.Parallel()
	reg := sched.Default()
	for _, kind := range reg.Kinds() {
		f, err := reg.New(sched.Spec{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{3, 11} {
			for _, engine := range []string{"run", "hold", "stream"} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", kind, engine, seed), func(t *testing.T) {
					t.Parallel()
					jobs := workload.Batch(workload.BatchConfig{N: 14, MeanInterarrival: 15, Mix: workload.MixBoth, Seed: seed})
					oracle := newMemoOracle(t)
					m := newMemoChecker(oracle, f(seed))
					cfg := sim.Config{
						NumExecutors: 16,
						Trace:        carbon.SynthesizeAll(48, 60, seed)["DE"],
						Seed:         seed,
						FailureRate:  0.2,
					}
					events := 0
					observe := func(c *sim.Cluster) {
						events++
						oracle.check(c, "after event", events)
					}
					var res *sim.Result
					var err error
					switch engine {
					case "run":
						cfg.Observer = observe
						res, err = sim.Run(cfg, jobs, m)
					case "hold":
						cfg.Observer = observe
						cfg.HoldExecutors = true
						res, err = sim.Run(cfg, jobs, m)
					case "stream":
						res, err = sim.RunStream(cfg, &sim.SliceSource{Jobs: jobs}, m)
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.TaskRetries == 0 {
						t.Fatal("no task retried; the failure path went unchecked")
					}
					if m.snap == nil {
						t.Fatal("no mid-run snapshot captured")
					}
					c, err := m.snap.Restore()
					if err != nil {
						t.Fatal(err)
					}
					oracle.check(c, "restored", 0)
					c.Place(f(seed))
					oracle.check(c, "restored after Place", 0)
				})
			}
		}
	}
}

// memoChecker checks the memos at every Pick, then delegates. It
// snapshots the cluster once, mid-run.
type memoChecker struct {
	oracle *memoOracle
	inner  sim.Scheduler
	picks  int
	snap   *sim.Snapshot
}

func newMemoChecker(oracle *memoOracle, inner sim.Scheduler) *memoChecker {
	return &memoChecker{oracle: oracle, inner: inner}
}

func (m *memoChecker) Name() string { return m.inner.Name() }
func (m *memoChecker) Pick(c *sim.Cluster) sim.Decision {
	m.picks++
	m.oracle.check(c, "pick", m.picks)
	if m.snap == nil && m.picks >= 10 && len(c.ActiveJobs()) > 1 {
		m.snap = c.Snapshot()
	}
	return m.inner.Pick(c)
}

// TestRecycledRunReusesCriticalPathArray drains a strictly sequential
// stream of equally wide jobs, so every admission recycles the previous
// job's record: the critical-path vector must be the new job's, computed
// into the record's existing backing array.
func TestRecycledRunReusesCriticalPathArray(t *testing.T) {
	t.Parallel()
	const n = 12
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		b := dag.NewBuilder(i, "chain")
		// Same shape, different sizes: each job's vector differs.
		b.Chain(b.Stage("", 1+i%3, 4), b.Stage("", 2, float64(1+i)), b.Stage("", 1, 3))
		j := b.MustBuild()
		j.Arrival = float64(i) * 200
		jobs[i] = j
	}
	probe := &cpProbe{t: t, oracle: newMemoOracle(t), inner: sched.NewDecima(1),
		backing: map[*sim.JobRun]*float64{}, seen: map[*dag.Job]bool{}}
	res, err := sim.RunStream(sim.Config{NumExecutors: 4, Trace: carbon.SynthesizeAll(48, 60, 1)["DE"]},
		&sim.SliceSource{Jobs: jobs}, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream.RecycledRuns == 0 || probe.reused == 0 {
		t.Fatalf("recycled %d runs, %d reused critical-path arrays; want both > 0", res.Stream.RecycledRuns, probe.reused)
	}
}

// cpProbe remembers the first critical-path backing array each run record
// used, and checks every later job on that record uses the same one.
type cpProbe struct {
	t       *testing.T
	oracle  *memoOracle
	inner   sim.Scheduler
	backing map[*sim.JobRun]*float64
	seen    map[*dag.Job]bool
	reused  int
}

func (p *cpProbe) Name() string { return "cp-probe" }
func (p *cpProbe) Pick(c *sim.Cluster) sim.Decision {
	p.oracle.check(c, "cp-probe", 0)
	for _, j := range c.ActiveJobs() {
		first := &j.CriticalPathWork()[0]
		prev, ok := p.backing[j]
		switch {
		case !ok:
			p.backing[j] = first
		case prev != first:
			p.t.Fatalf("job %d: recycled record moved its critical-path array", j.Job.ID)
		case !p.seen[j.Job]:
			p.reused++
		}
		p.seen[j.Job] = true
	}
	return p.inner.Pick(c)
}
