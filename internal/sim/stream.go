package sim

// Hyperscale streaming mode (DESIGN.md §10). RunStream feeds the event
// loop from a JobSource: jobs are admitted lazily as their arrival times
// come due, completed jobs' runtime state is retired eagerly back into a
// per-cluster pool (arena-backed stage records), and per-job outputs
// fold into constant-memory streaming reducers. Peak
// memory is proportional to the in-flight job count — offered load times
// sojourn time — not to the total number of jobs simulated, which is
// what lets one cluster process millions of jobs on thousands of
// executors without materializing any O(jobs) state.

import (
	"errors"
	"fmt"
	"math"

	"pcaps/internal/dag"
	"pcaps/internal/metrics"
)

// JobSource yields the jobs of a run lazily, in non-decreasing Arrival
// order, returning (nil, nil) when the stream is exhausted. The engine
// takes ownership of every yielded job (Validate normalizes edge lists
// in place), so sources must produce fresh jobs, never shared templates.
// workload.NewSource adapts the seeded generator to this contract.
type JobSource interface {
	Next() (*dag.Job, error)
}

// SliceSource adapts an in-memory batch to the JobSource contract,
// cloning each job on yield so shared templates stay read-only. It is
// the bridge the equivalence tests drive both engines through.
type SliceSource struct {
	Jobs []*dag.Job
	next int
}

// Next yields a clone of the next job, or (nil, nil) past the end.
func (s *SliceSource) Next() (*dag.Job, error) {
	if s.next >= len(s.Jobs) {
		return nil, nil
	}
	j := s.Jobs[s.next].Clone()
	s.next++
	return j, nil
}

// StreamStats is the constant-memory summary RunStream folds per-job
// outputs into. Quantiles are P² sketch estimates (deterministic for a
// given completion sequence, but not the exact order statistics — see
// metrics.P2Quantile); the backlog figures are exact.
type StreamStats struct {
	// Admitted counts jobs drawn from the source.
	Admitted int
	// PeakInFlight is the maximum number of jobs simultaneously admitted
	// and incomplete — the quantity the engine's memory is proportional to.
	PeakInFlight int
	// MeanInFlight is the time-weighted mean of the same depth.
	MeanInFlight float64
	// P50JCT, P95JCT, P99JCT are sketch estimates of the job-completion-
	// time quantiles in seconds.
	P50JCT, P95JCT, P99JCT float64
	// RecycledRuns counts JobRun records served from the retirement pool
	// rather than freshly allocated.
	RecycledRuns int
}

// runState carries the reducers and retirement pool of one run.
type runState struct {
	pool    runPool
	backlog metrics.StreamBacklog
	p50     *metrics.P2Quantile
	p95     *metrics.P2Quantile
	p99     *metrics.P2Quantile

	perJob bool
	// jcts/jobCarbon are indexed by JobRun.index; only populated when
	// perJob is set (for RunStream, PerJobOn defeats the memory bound by
	// request).
	jcts      []float64
	jobCarbon []float64
	// sumJCT accumulates completion-order JCT sums for the PerJobOff
	// path; ect tracks the latest completion either way.
	sumJCT float64
	ect    float64
}

// RunStream simulates jobs drawn lazily from src under the scheduler
// until the source is exhausted and every admitted job completes. It
// drives the same event loop as Run, so small batches produce summaries
// identical to Run (bit-for-bit when PerJobResults is PerJobOn; AvgJCT
// differs only by float re-association otherwise) — pinned by
// TestRunStreamMatchesRun — while memory stays bounded by the in-flight
// job count.
//
// TrackJobUsage and Observer are incompatible with state retirement
// (both expose per-job state whose lifetime streaming deliberately
// ends early) and are rejected.
func RunStream(cfg Config, src JobSource, s Scheduler) (*Result, error) {
	if src == nil {
		return nil, errors.New("sim: RunStream requires a job source")
	}
	if cfg.TrackJobUsage {
		return nil, errors.New("sim: RunStream does not support TrackJobUsage (per-job state is retired eagerly)")
	}
	if cfg.Observer != nil {
		return nil, errors.New("sim: RunStream does not support Observer (retired state must not escape)")
	}
	c, err := idleCluster(cfg)
	if err != nil {
		return nil, err
	}
	n, last := 0, math.Inf(-1)
	return c.run(func() (*dag.Job, int, error) {
		j, err := src.Next()
		if err != nil {
			return nil, 0, fmt.Errorf("sim: job source: %w", err)
		}
		if j == nil {
			return nil, 0, nil
		}
		if j.Arrival < last {
			return nil, 0, fmt.Errorf("sim: job %d arrives at %v, before the prior admission at %v (sources must yield non-decreasing arrivals)", j.ID, j.Arrival, last)
		}
		last = j.Arrival
		if err := j.Validate(); err != nil {
			return nil, 0, fmt.Errorf("sim: job %d: %w", j.ID, err)
		}
		n++
		return j, n - 1, nil
	}, s, cfg.PerJobResults == PerJobOn)
}

// admit activates one fed job: acquire a pooled JobRun, count it, and
// run the arrival transition.
//
//pcaps:hotpath
func (c *Cluster) admit(st *runState, j *dag.Job, index int) {
	jr := st.pool.acquire(j, index)
	c.admitted++
	st.backlog.Arrive(j.Arrival)
	c.arrive(jr)
}

// retire drains the jobs completed by the event just processed: their
// outputs fold into the reducers and their runtime records return to the
// pool. Retirement runs strictly after the event's scheduling pass, when
// nothing in the cluster references the finished job.
//
//pcaps:hotpath
func (c *Cluster) retire(st *runState) {
	for i, j := range c.doneScratch {
		jct := j.CompletedAt - j.Job.Arrival
		st.p50.Add(jct)
		st.p95.Add(jct)
		st.p99.Add(jct)
		st.backlog.Complete(j.CompletedAt)
		if st.perJob {
			for len(st.jcts) <= j.index {
				//hot:alloc amortized growth of the explicitly requested per-job slices
				st.jcts = append(st.jcts, 0)
				//hot:alloc amortized growth of the explicitly requested per-job slices
				st.jobCarbon = append(st.jobCarbon, 0)
			}
			st.jcts[j.index] = jct
			st.jobCarbon[j.index] = j.CarbonGrams
		} else {
			st.sumJCT += jct
		}
		if j.CompletedAt > st.ect {
			st.ect = j.CompletedAt
		}
		st.pool.release(j)
		c.doneScratch[i] = nil
	}
	c.doneScratch = c.doneScratch[:0]
}

// result assembles the run summary from the reducers.
func (c *Cluster) result(name string, st *runState, totalWork float64, events int) *Result {
	res := &Result{
		Scheduler:    name,
		ECT:          st.ect,
		Usage:        c.usage,
		JobUsage:     c.jobUsage,
		Deferrals:    c.deferrals,
		DeferredWork: c.deferredWork,
		TotalWork:    totalWork,
		Events:       events,
	}
	if st.perJob {
		res.JCTs = st.jcts
		res.JobCarbon = st.jobCarbon
		// Sum in index order rather than completion order, so the sum
		// does not depend on the trajectory's completion sequence.
		var sum float64
		for _, jct := range st.jcts {
			sum += jct
		}
		res.AvgJCT = sum / float64(c.admitted)
	} else {
		res.AvgJCT = st.sumJCT / float64(c.admitted)
	}
	for i, u := range c.usage {
		res.CarbonGrams += u * c.cfg.Trace.Values[min(i, len(c.cfg.Trace.Values)-1)] / 3600
	}
	res.Stream = &StreamStats{
		Admitted:     c.admitted,
		PeakInFlight: st.backlog.Peak(),
		MeanInFlight: st.backlog.Mean(),
		P50JCT:       st.p50.Value(),
		P95JCT:       st.p95.Value(),
		P99JCT:       st.p99.Value(),
		RecycledRuns: st.pool.recycled,
	}
	return res
}

// runPool recycles JobRun records between admissions. Stage records live
// in a per-JobRun arena ([]StageRun) whose capacity grows to the widest
// job seen and is then reused, so steady-state admission allocates
// nothing beyond the dag.Job itself. Released runs drop their dag and
// stage pointers: the pool must never extend a retired job's object
// lifetime, only its containers'.
type runPool struct {
	free     []*JobRun
	recycled int
}

// acquire returns a JobRun for the job, reusing a retired record's
// backing arrays when one is available.
//
//pcaps:hotpath
func (p *runPool) acquire(j *dag.Job, index int) *JobRun {
	var jr *JobRun
	if n := len(p.free); n > 0 {
		jr = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.recycled++
	} else {
		//hot:alloc pool miss; steady state reuses retired records
		jr = &JobRun{}
	}
	ns := len(j.Stages)
	arena, stages := jr.arena, jr.Stages
	if cap(arena) < ns {
		//hot:alloc arena growth to the widest job seen, then reused
		arena = make([]StageRun, ns)
	} else {
		arena = arena[:ns]
	}
	if cap(stages) < ns {
		//hot:alloc stage-pointer growth to the widest job seen, then reused
		stages = make([]*StageRun, ns)
	} else {
		stages = stages[:ns]
	}
	runnable, held, cp := jr.runnable[:0], jr.held[:0], jr.cp[:0]
	*jr = JobRun{Job: j, Stages: stages, arena: arena, index: index, runnable: runnable, held: held, cp: cp}
	for i, stg := range j.Stages {
		arena[i] = StageRun{Stage: stg, ParentsLeft: len(stg.Parents)}
		stages[i] = &arena[i]
	}
	return jr
}

// release retires a completed run back to the pool, clearing every
// pointer to the job's immutable structure so the dag becomes garbage
// the moment its run is recycled.
//
//pcaps:hotpath
func (p *runPool) release(jr *JobRun) {
	jr.Job = nil
	for i := range jr.arena {
		jr.arena[i].Stage = nil
	}
	//hot:alloc amortized free-list growth; bounded by peak in-flight jobs
	p.free = append(p.free, jr)
}
