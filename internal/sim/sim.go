// Package sim is a discrete-event simulator of a Spark-style data
// processing cluster, modeled on the simulator of Mao et al. [48] that the
// paper extends (§5.2). It captures the first-order effects that matter to
// carbon-aware scheduling: per-stage task waves, per-stage parallelism
// limits, executor hand-off delays between jobs, per-job executor caps
// (the prototype's Kubernetes behaviour, Appendix A.1.2), and scheduling
// events on job arrivals, task completions, executor idling, and every
// carbon-intensity boundary (Alg. 1 line 2).
//
// Carbon accounting is ex post facto as in §5.2: busy executor-seconds are
// accumulated per carbon interval while the simulation runs and converted
// to gCO2eq afterwards, so accounting never perturbs scheduling.
//
// The scheduling core is incremental (see DESIGN.md): the cluster
// maintains a per-job runnable-stage index, an idle-executor free list,
// and per-job held-executor lists, all updated only at the transitions
// that can change them — job arrival, task dispatch, stage finish,
// hold expiry, and job completion. The Runnable/ActiveJobs/
// OutstandingWork accessors are epoch-cached views over that state, so
// the repeated Pick calls within one scheduling event cost no allocations
// and no full-state rescans.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/metrics"
)

// Config parameterizes one simulation run. The engine draws no
// randomness: task durations are the stages' own, so a run is a function
// of its Config, its jobs and its scheduler.
type Config struct {
	// NumExecutors is K, the number of machines.
	NumExecutors int
	// Trace is the carbon-intensity signal. Required.
	Trace *carbon.Trace
	// ForecastHorizon is the lookahead window, in experiment seconds,
	// over which the schedulers' L and U bounds are computed. The paper
	// uses 48 grid-hours; at the 1-min = 1-h scaling that is 48 samples.
	// Zero selects 48 trace intervals.
	ForecastHorizon float64
	// Forecaster supplies the (L, U) bounds; nil selects the paper's
	// oracle assumption (exact window extremes). Use
	// carbon.Persistence to study operation under realistic,
	// history-only forecasts.
	Forecaster carbon.Forecaster
	// MoveDelay is the executor hand-off latency in seconds incurred
	// when an executor switches to a different job (Spark executor
	// movement, §5.2). Within-job stage switches are free.
	MoveDelay float64
	// PerJobCap bounds the executors simultaneously assigned to one job;
	// 0 means unlimited. The paper's prototype uses 25 (§6.3).
	PerJobCap int
	// HoldExecutors models executor retention (Appendix A.1.2): an
	// executor granted to a job stays with that job — consuming
	// resources and emitting carbon — while it has no task to run, until
	// either the job completes or the executor has idled for
	// IdleTimeout (Spark's executorIdleTimeout). Retained executors
	// serve their job's newly runnable stages directly (the
	// in-application FIFO). This is the mechanism behind standalone
	// FIFO's blocking and its worse carbon footprint relative to
	// schedulers that actively manage executor placement (Fig. 15).
	// A held executor that starts a stage keeps it across the stage's
	// task waves (DESIGN.md §2.1).
	HoldExecutors bool
	// IdleTimeout is the retention window in seconds for HoldExecutors
	// mode; 0 selects Spark's default of 60 s, negative values hold for
	// the job's whole lifetime (standalone mode without dynamic
	// allocation).
	IdleTimeout float64
	// Seed is not read by the engine, which draws no randomness. It
	// stays for callers that keep a run's scheduler seed with its
	// configuration (the benchmark harness in perfbench/ reads it back).
	Seed int64
	// MaxEvents bounds the event loop as a hang guard; 0 selects a
	// generous default.
	MaxEvents int
	// PerJobResults gates the O(jobs) Result slices (JCTs, JobCarbon).
	// The zero value keeps them for Run and drops them for RunStream
	// (memory-bounded by construction); PerJobOn / PerJobOff force either
	// choice on either entry point.
	PerJobResults PerJob
	// TrackJobUsage additionally records each job's busy
	// executor-seconds per carbon interval (Result.JobUsage) — the
	// per-job shading of the paper's occupancy plots (Fig. 6).
	TrackJobUsage bool
	// Observer, when non-nil, is invoked after each event's scheduling
	// pass completes, with the cluster in a consistent scheduler-visible
	// state — the capture point for Cluster.Snapshot exports. The
	// callback must not mutate cluster state and must not retain the
	// view slices across calls; Snapshot itself copies what it needs.
	Observer func(c *Cluster)
}

// PerJob selects whether a run retains per-job result slices.
type PerJob int

const (
	// PerJobDefault keeps per-job slices in Run and drops them in
	// RunStream — each entry point's natural behaviour.
	PerJobDefault PerJob = iota
	// PerJobOn always records Result.JCTs and Result.JobCarbon.
	PerJobOn
	// PerJobOff always drops them; AvgJCT/ECT/CarbonGrams still come out.
	PerJobOff
)

// StageRun is the runtime state of one stage of one job.
type StageRun struct {
	Stage *dag.Stage
	// Dispatched and Completed count tasks handed to executors and
	// finished, respectively.
	Dispatched, Completed int
	// Running is the number of executors currently bound to the stage.
	Running int
	// Limit is the parallelism limit in force, set each time a
	// scheduler (re)selects the stage. 0 means not yet scheduled.
	Limit int
	// ParentsLeft counts incomplete parent stages; the stage is
	// runnable when it reaches 0.
	ParentsLeft int
}

// Runnable reports whether the stage can accept a new executor under its
// current limit.
func (s *StageRun) Runnable() bool {
	return s.ParentsLeft == 0 && s.Dispatched < s.Stage.NumTasks
}

// RemainingTasks returns the number of undispatched tasks.
func (s *StageRun) RemainingTasks() int { return s.Stage.NumTasks - s.Dispatched }

// JobRun is the runtime state of one job.
type JobRun struct {
	Job    *dag.Job
	Stages []*StageRun
	// StagesDone counts completed stages.
	StagesDone int
	// Executors counts executors currently bound to the job.
	Executors int
	// index is the job's position in Run's batch, or its admission rank
	// in RunStream. It orders the active list, indexes the per-job
	// results, and drives move-delay accounting.
	index int
	// Done reports completion; CompletedAt is its timestamp.
	Done        bool
	CompletedAt float64
	// CarbonGrams accumulates the job's attributed carbon footprint.
	CarbonGrams float64

	// runnable is the incrementally maintained index of this job's
	// runnable stages (all parents complete, undispatched tasks left),
	// sorted by stage ID. Stages enter on arrival or when their last
	// parent finishes, and leave when their last task is dispatched.
	runnable []*StageRun
	// held lists the executors this job is retaining between tasks
	// (HoldExecutors mode), so hold-mode dispatch and job-completion
	// release never scan the whole cluster.
	held []*executor
	// arena backs Stages for pooled runs: stage records live contiguously
	// and are reused across recycles. Nil in a restored cluster, where
	// stage records are allocated individually.
	arena []StageRun
	// remain memoizes RemainingWork while remainOK holds. completeTask,
	// the only writer of StageRun.Completed, clears remainOK; records
	// start with it clear, whether new, restored or re-acquired from the
	// pool.
	remain   float64
	remainOK bool
	// cp holds CriticalPathWork's vector once computed (empty before).
	// Its backing array survives pool recycling, like arena's.
	cp []float64
	// stamp is the cluster epoch of the job's last change (see Stamp).
	stamp int
	// holdReady mirrors len(held) > 0 && len(runnable) > 0 — the job can
	// serve a held executor right now. The cluster counts holdReady jobs
	// so the hold-mode dispatch pass is skipped entirely when no job has
	// both a parked executor and runnable work (the common case: after
	// every dispatch pass the count returns to zero, and it only rises
	// again at a stage finish, hold, or arrival transition).
	holdReady bool
}

// RemainingWork returns the job's undone work in executor-seconds,
// counting both undispatched and in-flight tasks. The sum is memoized
// until the next task completion and recomputed by the same loop, so a
// memoized answer has the same bits as a fresh one.
//
//pcaps:hotpath
func (j *JobRun) RemainingWork() float64 {
	if !j.remainOK {
		var w float64
		for _, s := range j.Stages {
			w += float64(s.Stage.NumTasks-s.Completed) * s.Stage.TaskDuration
		}
		j.remain, j.remainOK = w, true
	}
	return j.remain
}

// Stamp returns the cluster epoch at which anything a scheduler can read
// of this job last changed: its runnable stages, a stage's dispatched,
// completed or running count, or its executor count. Stamps only grow
// within one cluster, so a scheduler that keeps state derived from a job
// may reuse it for as long as the job's stamp is the one it recorded.
// A restored cluster's jobs start at stamp 0.
func (j *JobRun) Stamp() int { return j.stamp }

// RunnableStages returns the job's runnable stages (all parents
// complete, undispatched tasks left) in stage-ID order, regardless of
// the per-job cap. The slice is the cluster's live index: it is valid
// until the next state change and must not be retained or modified.
//
//pcaps:hotpath
func (j *JobRun) RunnableStages() []*StageRun { return j.runnable }

// CriticalPathWork returns, per stage ID, the work on the heaviest
// downstream chain starting at that stage (dag.Job.CriticalPathWorkDown).
// The DAG never changes after admission, so the vector is computed once
// per job, into a backing array the streaming pool reuses across
// recycles. The slice belongs to the record and must not be modified.
//
//pcaps:hotpath
func (j *JobRun) CriticalPathWork() []float64 {
	if len(j.cp) == 0 {
		j.cp = j.Job.AppendCriticalPathWorkDown(j.cp[:0])
	}
	return j.cp
}

// StageRef identifies a runnable stage to a scheduler.
type StageRef struct {
	Job   *JobRun
	Stage *StageRun
}

// Decision is a scheduler's answer to one Pick call.
type Decision struct {
	// Ref is the stage to receive executors. Meaningless when Defer.
	Ref StageRef
	// Limit is the parallelism limit to apply to the stage (maximum
	// concurrent executors). Values < 1 mean "no limit" (the standalone
	// FIFO over-assignment behaviour of Appendix A.1.2).
	Limit int
	// MaxNew bounds how many executors this single decision may bind;
	// values < 1 mean unbounded. CAP uses it to enforce its quota
	// without preempting running work.
	MaxNew int
	// Defer stops all further assignment until the next scheduling
	// event, idling the remaining free executors (Alg. 1 line 10).
	Defer bool
}

// DeferDecision is the Decision that idles the cluster until the next
// scheduling event.
var DeferDecision = Decision{Defer: true}

// Scheduler chooses stages for idle executors. Pick is invoked repeatedly
// during a scheduling event while idle executors and runnable stages
// remain; returning Defer ends the event.
type Scheduler interface {
	Name() string
	Pick(c *Cluster) Decision
}

// executor is one machine.
type executor struct {
	id   int
	busy bool
	// job / stage the executor is bound to; nil when idle.
	job   *JobRun
	stage *StageRun
	// reserved is the job holding this executor between tasks in
	// HoldExecutors mode; nil otherwise. holdExpire is the time the
	// current reservation lapses.
	reserved   *JobRun
	holdExpire float64
	// lastJob remembers the previous binding's job index for move-delay
	// accounting (-1 before the first binding). Indices rather than
	// *JobRun pointers: the engine recycles JobRun records through a
	// pool, so a pointer could alias a later job and silently
	// skip its hand-off delay, while indices are never reused.
	lastJob int
	// heldPos is this executor's index in reserved.held, for O(1)
	// removal. Meaningless when reserved is nil.
	heldPos int
	// inReservedIdle marks that the executor's ID is present in the
	// cluster's reservedIdle heap (entries are removed lazily).
	inReservedIdle bool
}

// Cluster is the simulation state exposed to schedulers.
type Cluster struct {
	cfg    Config
	clock  float64
	execs  []*executor
	events eventHeap
	// busyCount counts executors running a task; activeCount adds the
	// executors a job merely holds (HoldExecutors mode). Carbon and
	// quota decisions see activeCount — held executors burn power.
	busyCount   int
	activeCount int

	// free holds the IDs of executors in the shared idle pool, popped in
	// ascending order so assignment matches the historical full scan.
	free intHeap
	// reservedIdle holds the IDs of executors that are held by a job and
	// awaiting work (HoldExecutors mode). Entries go stale when an
	// executor is released or dispatched; staleness is detected on pop
	// via the executor's own state, and inReservedIdle keeps each ID at
	// most once in the heap.
	reservedIdle intHeap
	// reservedScratch is reused by dispatchReserved's drain.
	reservedScratch []int
	// holdReadyCount counts jobs with holdReady set; dispatchReserved is
	// a guaranteed no-op while it is zero.
	holdReadyCount int
	// active lists arrived, incomplete jobs in batch order — the
	// incremental form of the historical scan over all jobs.
	active []*JobRun
	// doneCount counts completed jobs, replacing the historical per-event
	// scan over all jobs in unfinished().
	doneCount int

	// admitted counts the jobs the loop has admitted, srcDone records that
	// its feed is exhausted, and finishStage parks completed jobs in
	// doneScratch for retirement after the event's scheduling pass.
	srcDone     bool
	admitted    int
	doneScratch []*JobRun

	// epoch counts state mutations that can change the scheduler-facing
	// views; the cached views below are rebuilt (into reused scratch)
	// only when their epoch falls behind. Within one scheduling event a
	// scheduler may call Runnable/ActiveJobs/OutstandingWork any number
	// of times for free.
	epoch            int
	runnableEpoch    int
	runnableView     []StageRef
	outstandingEpoch int
	outstanding      float64

	// usage[i] is busy executor-seconds accumulated during carbon
	// interval i.
	usage []float64
	// deferrals and deferredWork record PCAPS-style filter activity,
	// reported by wrapping schedulers through NoteDeferral.
	deferrals    int
	deferredWork float64
	// jobUsage mirrors usage per job when Config.TrackJobUsage is set.
	jobUsage [][]float64

	// boundsClock/boundsLo/boundsHi cache the oracle CarbonBounds for the
	// current clock value: CAP-style wrappers query the bounds on every
	// Pick, several times per scheduling event, and the answer only
	// changes when the clock moves. boundsClock is NaN when invalid.
	boundsClock        float64
	boundsLo, boundsHi float64
}

// Now returns the simulation clock in experiment seconds.
func (c *Cluster) Now() float64 { return c.clock }

// Carbon returns the current carbon intensity.
func (c *Cluster) Carbon() float64 { return c.cfg.Trace.At(c.clock) }

// CarbonBounds returns the forecast bounds (L, U) over the configured
// lookahead window starting now, from the configured forecaster (oracle
// by default, per the paper's assumption).
func (c *Cluster) CarbonBounds() (lo, hi float64) {
	if c.cfg.Forecaster != nil {
		// Forecasters may be stateful (history accumulation), so their
		// answers are never cached.
		return c.cfg.Forecaster.Bounds(c.cfg.Trace, c.clock, c.cfg.ForecastHorizon)
	}
	if c.boundsClock != c.clock {
		c.boundsLo, c.boundsHi = c.cfg.Trace.Bounds(c.clock, c.cfg.ForecastHorizon)
		c.boundsClock = c.clock
	}
	return c.boundsLo, c.boundsHi
}

// GreenFraction returns the local renewable (solar) capacity fraction now
// — the signal GreenHadoop schedules against.
func (c *Cluster) GreenFraction() float64 { return c.cfg.Trace.SolarFraction(c.clock) }

// GreenFractionAt returns the green fraction at an arbitrary future time
// (GreenHadoop plans over a window).
func (c *Cluster) GreenFractionAt(sec float64) float64 { return c.cfg.Trace.SolarFraction(sec) }

// CarbonInterval returns the trace sampling interval in seconds.
func (c *Cluster) CarbonInterval() float64 { return c.cfg.Trace.Interval }

// K returns the cluster size.
func (c *Cluster) K() int { return c.cfg.NumExecutors }

// PerJobCap returns the configured per-job executor cap (0 = uncapped),
// so policies can avoid proposing stages the assignment loop must reject.
func (c *Cluster) PerJobCap() int { return c.cfg.PerJobCap }

// BusyCount returns the number of executors consuming cluster resources:
// those running a task plus those held by a job between tasks in
// HoldExecutors mode. This is the E(t) of the paper's carbon model and the
// count CAP's quota gates on.
func (c *Cluster) BusyCount() int { return c.activeCount }

// RunningCount returns only the executors actually executing a task.
func (c *Cluster) RunningCount() int { return c.busyCount }

// IdleCount returns the number of executors in the shared free pool.
func (c *Cluster) IdleCount() int { return len(c.execs) - c.activeCount }

// touch marks every cached view stale and moves the job's stamp to the
// new epoch. Every change to a job that schedulers can observe —
// admission, task dispatch, task completion, executor release, hold
// expiry, and job completion — must touch the job before the next Pick.
func (c *Cluster) touch(j *JobRun) {
	c.epoch++
	j.stamp = c.epoch
}

// ActiveJobs returns admitted, incomplete jobs in index order (batch
// order for Run, arrival order for RunStream).
//
// The returned slice is a live view owned by the cluster: it is valid
// until the next state change (in practice, until the scheduler's Pick
// returns) and must not be retained or modified.
//
//pcaps:hotpath
func (c *Cluster) ActiveJobs() []*JobRun { return c.active }

// Runnable returns references to every stage that can accept work:
// active job, all parents complete, undispatched tasks remaining, and
// per-job cap not exhausted. Order is deterministic (ActiveJobs order,
// then stage ID).
//
// The returned slice is an epoch-cached view owned by the cluster:
// repeated calls within one scheduling event return the same backing
// array without rebuilding. It is valid until the next state change and
// must not be retained or modified.
//
//pcaps:hotpath
func (c *Cluster) Runnable() []StageRef {
	if c.runnableEpoch != c.epoch {
		c.runnableView = c.runnableView[:0]
		for _, j := range c.active {
			if c.cfg.PerJobCap > 0 && j.Executors >= c.cfg.PerJobCap {
				continue
			}
			for _, s := range j.runnable {
				c.runnableView = append(c.runnableView, StageRef{Job: j, Stage: s})
			}
		}
		c.runnableEpoch = c.epoch
	}
	return c.runnableView
}

// OutstandingWork returns total undone work across active jobs, in
// executor-seconds. The sum is epoch-cached alongside the other views.
//
//pcaps:hotpath
func (c *Cluster) OutstandingWork() float64 {
	if c.outstandingEpoch != c.epoch {
		var w float64
		for _, j := range c.active {
			w += j.RemainingWork()
		}
		c.outstanding = w
		c.outstandingEpoch = c.epoch
	}
	return c.outstanding
}

// NoteDeferral lets carbon-aware wrapper schedulers record a filtered
// (deferred) stage so that the run report can estimate D(γ,c).
func (c *Cluster) NoteDeferral(ref StageRef) {
	var work float64
	if ref.Stage != nil {
		work = float64(ref.Stage.RemainingTasks()) * ref.Stage.Stage.TaskDuration
	}
	c.deferrals++
	c.deferredWork += work
}

// errNoProgress guards against schedulers that return saturated stages.
var errNoProgress = errors.New("sim: scheduler made no progress")

// Result summarizes one run.
type Result struct {
	Scheduler string
	// ECT is the end-to-end completion time: the time the last job
	// finishes (experiments start at 0).
	ECT float64
	// AvgJCT is the mean job completion time (completion − arrival).
	AvgJCT float64
	// JCTs holds each job's completion time, indexed as cfg jobs. Nil
	// when per-job results are disabled (Config.PerJobResults).
	JCTs []float64
	// CarbonGrams is the total carbon footprint in gCO2eq assuming 1 kW
	// per busy executor.
	CarbonGrams float64
	// JobCarbon holds each job's attributed footprint in gCO2eq. Nil
	// when per-job results are disabled (Config.PerJobResults).
	JobCarbon []float64
	// Usage is busy executor-seconds per carbon interval (the timeline
	// consumed by core.DecomposeSavings).
	Usage []float64
	// JobUsage, when Config.TrackJobUsage is set, holds each job's busy
	// executor-seconds per carbon interval (rows index jobs as given).
	JobUsage [][]float64
	// Deferrals and DeferredWork report carbon-filter activity.
	Deferrals    int
	DeferredWork float64
	// Stream carries the streaming reducers' summary: in-flight depth,
	// JCT quantile sketches and run-record reuse.
	Stream *StreamStats
	// TotalWork is the batch's total work in executor-seconds.
	TotalWork float64
	// Events is the number of processed simulation events.
	Events int
}

// Run simulates the batch of jobs under the scheduler until every job
// completes, returning the run summary. Jobs are deep-copied so templates
// can be reused across runs. Run drives the event loop RunStream uses,
// fed from the batch: jobs are admitted in arrival order, ties in batch
// order, and each keeps its batch position as its index, so per-job
// results, TotalWork and AvgJCT all come out in batch order.
func Run(cfg Config, jobs []*dag.Job, s Scheduler) (*Result, error) {
	c, err := idleCluster(cfg)
	if err != nil {
		return nil, err
	}
	batch := make([]*dag.Job, len(jobs))
	order := make([]int, len(jobs))
	var totalWork float64
	for i, tpl := range jobs {
		// Clone before validating: Validate normalizes edge lists in
		// place, and templates are shared by concurrent runs (the
		// experiment engine fans cells out over a worker pool), so the
		// shared template must only ever be read.
		j := tpl.Clone()
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", tpl.ID, err)
		}
		batch[i], order[i] = j, i
		totalWork += j.TotalWork()
	}
	sort.SliceStable(order, func(a, b int) bool { return batch[order[a]].Arrival < batch[order[b]].Arrival })
	if cfg.TrackJobUsage {
		c.jobUsage = make([][]float64, len(jobs))
	}
	pos := 0
	res, err := c.run(func() (*dag.Job, int, error) {
		if pos == len(order) {
			return nil, 0, nil
		}
		i := order[pos]
		pos++
		return batch[i], i, nil
	}, s, true)
	if err != nil {
		return nil, err
	}
	// The loop sums TotalWork in admission order; the batch-order sum is
	// Run's contract. Per-job results were kept so AvgJCT sums in batch
	// order too, even when the caller does not want them.
	res.TotalWork = totalWork
	if cfg.PerJobResults == PerJobOff {
		res.JCTs, res.JobCarbon = nil, nil
	}
	return res, nil
}

// idleCluster validates the configuration, fills in its defaults, and
// builds a cluster with no jobs: every executor in the free pool and the
// first carbon-boundary event queued.
func idleCluster(cfg Config) (*Cluster, error) {
	if cfg.Trace == nil {
		return nil, errors.New("sim: config requires a carbon trace")
	}
	if cfg.NumExecutors < 1 {
		return nil, fmt.Errorf("sim: need at least one executor, got %d", cfg.NumExecutors)
	}
	if cfg.ForecastHorizon <= 0 {
		cfg.ForecastHorizon = 48 * cfg.Trace.Interval
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 20_000_000
	}
	c := &Cluster{cfg: cfg, epoch: 1}
	c.boundsClock = math.NaN() // cache starts invalid (clock starts at 0)
	c.execs = make([]*executor, cfg.NumExecutors)
	c.free = make(intHeap, 0, cfg.NumExecutors)
	for i := range cfg.NumExecutors {
		c.execs[i] = &executor{id: i, lastJob: -1}
		c.free.push(i)
	}
	// Preallocate the usage timeline to the trace length so the per-event
	// accounting in advance never grows it.
	c.usage = make([]float64, 0, len(cfg.Trace.Values))
	// Seed carbon-boundary events lazily: push the first boundary; each
	// handler pushes the next. This keeps the heap small on long traces.
	if next := cfg.Trace.NextChange(0); !math.IsInf(next, 1) {
		c.push(event{at: next, kind: evCarbon})
	}
	return c, nil
}

// feed supplies the event loop's admissions in non-decreasing arrival
// order: the next job, validated and owned by the engine, with the index
// its run record takes. A nil job ends the feed.
type feed func() (*dag.Job, int, error)

// run is the simulator's event loop, shared by Run and RunStream. Each
// step either admits the feed's next job, once its arrival is due, or
// processes the earliest event; then the scheduling pass runs, the
// Observer sees its outcome, and the jobs the step completed retire into
// the reducers and the run-record pool. perJob keeps the per-job result
// slices.
func (c *Cluster) run(next feed, s Scheduler, perJob bool) (*Result, error) {
	st := &runState{
		p50:    metrics.NewP2Quantile(0.50),
		p95:    metrics.NewP2Quantile(0.95),
		p99:    metrics.NewP2Quantile(0.99),
		perJob: perJob,
	}
	job, index, err := next()
	if err != nil {
		return nil, err
	}
	if job == nil {
		return nil, errors.New("sim: no jobs")
	}
	var totalWork float64
	events := 0
	for {
		// Admission beats the heap at ties: a job is active before any
		// other event at its arrival instant is processed.
		admit := job != nil && (c.events.Len() == 0 || job.Arrival <= c.events.items[0].at)
		if !admit && c.events.Len() == 0 {
			break
		}
		events++
		if events > c.cfg.MaxEvents {
			return nil, fmt.Errorf("sim: exceeded %d events (scheduler livelock?)", c.cfg.MaxEvents)
		}
		if admit {
			totalWork += job.TotalWork()
			c.advance(job.Arrival)
			c.admit(st, job, index)
			if job, index, err = next(); err != nil {
				return nil, err
			}
			c.srcDone = job == nil
		} else {
			ev := c.pop()
			c.advance(ev.at)
			c.handleEvent(ev)
		}
		if err := c.schedule(s); err != nil {
			return nil, err
		}
		if c.cfg.Observer != nil {
			c.cfg.Observer(c)
		}
		c.retire(st)
		if !c.unfinished() && c.noTaskPending() {
			break
		}
	}
	if len(c.active) > 0 {
		return nil, fmt.Errorf("sim: job %d did not complete", c.active[0].Job.ID)
	}
	return c.result(s.Name(), st, totalWork, events), nil
}

// handleEvent applies one popped event's state transition (the clock must
// already have advanced to ev.at).
func (c *Cluster) handleEvent(ev event) {
	switch ev.kind {
	case evTaskDone:
		c.completeTask(ev.exec)
	case evCarbon:
		if next := c.cfg.Trace.NextChange(c.clock); !math.IsInf(next, 1) && c.unfinished() {
			c.push(event{at: next, kind: evCarbon})
		}
	case evHoldExpire:
		c.expireHold(ev.exec)
	}
}

// unfinished reports whether any job is incomplete: the feed has jobs
// left or an admitted job runs. doneCount is maintained at the single
// place a job completes (finishStage).
func (c *Cluster) unfinished() bool {
	return !c.srcDone || c.doneCount < c.admitted
}

// updateHoldReady recomputes the job's holdReady bit and keeps the
// cluster-wide count in sync. It must be called after any mutation of
// j.held or j.runnable (and is cheap enough to call unconditionally).
func (c *Cluster) updateHoldReady(j *JobRun) {
	r := len(j.held) > 0 && len(j.runnable) > 0
	if r != j.holdReady {
		j.holdReady = r
		if r {
			c.holdReadyCount++
		} else {
			c.holdReadyCount--
		}
	}
}

// noTaskPending reports whether no task-completion events remain.
func (c *Cluster) noTaskPending() bool { return c.busyCount == 0 }

// arrive activates a job: it joins the active list (kept in index order)
// and its root stages enter the runnable index.
func (c *Cluster) arrive(j *JobRun) {
	i := len(c.active)
	for i > 0 && c.active[i-1].index > j.index {
		i--
	}
	c.active = append(c.active, nil)
	copy(c.active[i+1:], c.active[i:])
	c.active[i] = j
	if cap(j.runnable) < len(j.Stages) {
		j.runnable = make([]*StageRun, 0, len(j.Stages))
	} else {
		j.runnable = j.runnable[:0] // pooled run: reuse the retired capacity
	}
	for _, s := range j.Stages {
		if s.ParentsLeft == 0 {
			j.runnable = append(j.runnable, s)
		}
	}
	c.updateHoldReady(j)
	c.touch(j)
}

// noteDispatch records one task hand-off on the stage; a fully dispatched
// stage leaves the runnable index.
func (c *Cluster) noteDispatch(j *JobRun, st *StageRun) {
	st.Dispatched++
	if st.Dispatched >= st.Stage.NumTasks {
		for i, s := range j.runnable {
			if s == st {
				j.runnable = append(j.runnable[:i], j.runnable[i+1:]...)
				break
			}
		}
		c.updateHoldReady(j)
	}
	c.touch(j)
}

// insertRunnable adds a newly ready stage to the job's runnable index,
// keeping stage-ID order (the in-application FIFO order).
func (c *Cluster) insertRunnable(j *JobRun, st *StageRun) {
	i := len(j.runnable)
	for i > 0 && j.runnable[i-1].Stage.ID > st.Stage.ID {
		i--
	}
	j.runnable = append(j.runnable, nil)
	copy(j.runnable[i+1:], j.runnable[i:])
	j.runnable[i] = st
	c.updateHoldReady(j)
}

// advance moves the clock to t, accumulating busy executor-seconds into
// the per-carbon-interval usage timeline and per-job carbon attribution.
func (c *Cluster) advance(t float64) {
	if t <= c.clock {
		c.clock = math.Max(c.clock, t)
		return
	}
	tr := c.cfg.Trace
	cur := c.clock
	for cur < t {
		next := tr.NextChange(cur)
		if next > t {
			next = t
		}
		span := next - cur
		if c.activeCount > 0 && span > 0 {
			idx := tr.Index(cur)
			for len(c.usage) <= idx {
				c.usage = append(c.usage, 0)
			}
			c.usage[idx] += float64(c.activeCount) * span
			grams := tr.At(cur) * span / 3600
			for _, e := range c.execs {
				j := e.job
				if !e.busy {
					j = e.reserved
				}
				if j == nil {
					continue
				}
				j.CarbonGrams += grams
				if c.jobUsage != nil {
					row := c.jobUsage[j.index]
					if row == nil {
						row = make([]float64, 0, len(tr.Values))
					}
					for len(row) <= idx {
						row = append(row, 0)
					}
					row[idx] += span
					c.jobUsage[j.index] = row
				}
			}
		}
		if math.IsInf(next, 1) {
			break
		}
		cur = next
	}
	c.clock = t
}

// schedule runs the assignment loop for the current event: first let
// job-held executors serve their own jobs (HoldExecutors mode), then
// repeatedly ask the scheduler for a stage and bind idle executors to it,
// until the scheduler defers, no executors are idle, or nothing is
// runnable.
func (c *Cluster) schedule(s Scheduler) error {
	if c.cfg.HoldExecutors && c.holdReadyCount > 0 {
		// holdReadyCount > 0 iff some job has both a parked executor and
		// runnable work; otherwise the drain pass is a guaranteed no-op
		// (it would pop and re-push every waiting ID), so skip it.
		c.dispatchReserved()
	}
	for c.IdleCount() > 0 && c.hasRunnable() {
		d := s.Pick(c)
		if d.Defer {
			return nil
		}
		if d.Ref.Stage == nil || d.Ref.Job == nil {
			return fmt.Errorf("%w: %s returned empty decision", errNoProgress, s.Name())
		}
		if n := c.Assign(d); n == 0 {
			// The chosen stage could not accept an executor (saturated
			// limit or per-job cap). A correct scheduler avoids this;
			// treat it as a defer rather than livelocking.
			return nil
		}
	}
	return nil
}

// hasRunnable reports whether Runnable would return any stage, without
// building the view: a policy that never reads the view does not pay
// for it.
func (c *Cluster) hasRunnable() bool {
	for _, j := range c.active {
		if len(j.runnable) > 0 && (c.cfg.PerJobCap <= 0 || j.Executors < c.cfg.PerJobCap) {
			return true
		}
	}
	return false
}

// Assign is the event loop's assignment step: it binds idle executors to
// the decision's stage, honouring the parallelism limit, remaining tasks,
// and per-job cap, and returns the number of executors bound (0 for a
// deferral). Executors come off the free list in ascending-ID order,
// matching the historical whole-cluster scan. On a restored cluster it
// applies successive decisions without running any event, so a
// benchmark can drive one cluster through a sequence of Picks.
func (c *Cluster) Assign(d Decision) int {
	j, st := d.Ref.Job, d.Ref.Stage
	if d.Defer || j == nil || st == nil || j.Done || !st.Runnable() {
		return 0
	}
	limit := d.Limit
	if limit < 1 || limit > st.Stage.NumTasks {
		limit = st.Stage.NumTasks
	}
	st.Limit = limit
	n := 0
	for len(c.free) > 0 {
		if d.MaxNew > 0 && n >= d.MaxNew {
			break
		}
		if st.Running >= limit || st.RemainingTasks() == 0 {
			break
		}
		if c.cfg.PerJobCap > 0 && j.Executors >= c.cfg.PerJobCap {
			break
		}
		c.bind(c.execs[c.free.pop()], j, st)
		n++
	}
	return n
}

// dispatchReserved lets every job-held executor pull a task from its
// job's runnable stages (in-application FIFO: lowest stage ID first).
// Executors are drained from the reserved-idle heap in ascending-ID order
// — the order of the historical cluster scan — and those whose job has
// nothing runnable go back to waiting.
func (c *Cluster) dispatchReserved() {
	if len(c.reservedIdle) == 0 {
		return
	}
	ids := c.reservedScratch[:0]
	for len(c.reservedIdle) > 0 {
		id := c.reservedIdle.pop()
		e := c.execs[id]
		e.inReservedIdle = false
		if e.busy || e.reserved == nil {
			continue // stale entry: released or re-bound since pushed
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		e := c.execs[id]
		j := e.reserved
		if len(j.runnable) == 0 {
			c.reservedIdle.push(id)
			e.inReservedIdle = true
			continue
		}
		st := j.runnable[0]
		// Give the stage the in-application FIFO's "no limit" so the
		// executor continues in place across its task waves instead of
		// bouncing through release → re-reserve → expiry on every task.
		if st.Limit == 0 {
			st.Limit = st.Stage.NumTasks
		}
		c.releaseHeld(e)
		e.reserved = nil
		e.busy = true
		e.job = j
		e.stage = st
		c.busyCount++
		st.Running++
		c.noteDispatch(j, st)
		c.push(event{at: c.clock + st.Stage.TaskDuration, kind: evTaskDone, exec: e})
	}
	c.reservedScratch = ids[:0]
}

// bind starts a free-pool executor on the stage's next task.
func (c *Cluster) bind(e *executor, j *JobRun, st *StageRun) {
	delay := 0.0
	if e.lastJob != j.index {
		delay = c.cfg.MoveDelay
	}
	e.busy = true
	e.job = j
	e.stage = st
	c.busyCount++
	c.activeCount++
	j.Executors++
	st.Running++
	c.noteDispatch(j, st)
	c.push(event{at: c.clock + delay + st.Stage.TaskDuration, kind: evTaskDone, exec: e})
}

// completeTask handles a task-done event: the executor either pulls the
// next task of its stage (when the limit allows) or goes idle; stage and
// job completion propagate to children.
func (c *Cluster) completeTask(e *executor) {
	st, j := e.stage, e.job
	st.Completed++
	j.remainOK = false
	// One stamp covers the rest of this transition too (stage finish,
	// in-place continuation, executor release): no Pick runs in between.
	c.touch(j)
	if st.Completed == st.Stage.NumTasks {
		c.finishStage(j, st)
	}
	// Continue on the same stage when tasks remain and the limit holds.
	if st.RemainingTasks() > 0 && st.Running <= st.Limit {
		c.noteDispatch(j, st)
		c.push(event{at: c.clock + st.Stage.TaskDuration, kind: evTaskDone, exec: e})
		return
	}
	// Release the executor: back to the job's held pool in standalone
	// mode (unless the job just finished), otherwise to the free pool.
	e.busy = false
	e.lastJob = j.index
	e.job = nil
	e.stage = nil
	st.Running--
	c.busyCount--
	if c.cfg.HoldExecutors && !j.Done {
		c.holdExecutor(e, j)
		return // still active: the job holds the executor
	}
	j.Executors--
	c.activeCount--
	c.free.push(e.id)
}

// holdExecutor parks a just-released executor in its job's held pool and
// schedules the idle-timeout expiry (hold-for-lifetime when IdleTimeout
// is negative).
func (c *Cluster) holdExecutor(e *executor, j *JobRun) {
	e.reserved = j
	e.heldPos = len(j.held)
	j.held = append(j.held, e)
	c.updateHoldReady(j)
	if !e.inReservedIdle {
		c.reservedIdle.push(e.id)
		e.inReservedIdle = true
	}
	if c.cfg.IdleTimeout >= 0 {
		timeout := c.cfg.IdleTimeout
		if timeout == 0 {
			timeout = 60 // Spark's executorIdleTimeout default
		}
		e.holdExpire = c.clock + timeout
		c.push(event{at: e.holdExpire, kind: evHoldExpire, exec: e})
	}
}

// releaseHeld unlinks the executor from its reserving job's held list.
func (c *Cluster) releaseHeld(e *executor) {
	held := e.reserved.held
	last := len(held) - 1
	moved := held[last]
	held[e.heldPos] = moved
	moved.heldPos = e.heldPos
	held[last] = nil
	e.reserved.held = held[:last]
	c.updateHoldReady(e.reserved)
}

// expireHold releases a still-reserved executor whose idle window lapsed.
// Stale expiry events (the executor was re-dispatched and re-reserved
// since) are detected by comparing against the current holdExpire.
func (c *Cluster) expireHold(e *executor) {
	if e.reserved == nil || e.busy || c.clock < e.holdExpire {
		return
	}
	j := e.reserved
	c.releaseHeld(e)
	e.reserved = nil
	j.Executors--
	c.activeCount--
	c.free.push(e.id)
	c.touch(j)
}

// finishStage propagates completion to children and detects job
// completion.
func (c *Cluster) finishStage(j *JobRun, st *StageRun) {
	j.StagesDone++
	for _, childID := range st.Stage.Children {
		child := j.Stages[childID]
		child.ParentsLeft--
		if child.ParentsLeft == 0 {
			c.insertRunnable(j, child)
		}
	}
	if j.StagesDone == len(j.Stages) {
		j.Done = true
		j.CompletedAt = c.clock
		c.doneCount++
		// Release every executor the job was holding (standalone mode).
		for _, e := range j.held {
			e.reserved = nil
			e.lastJob = j.index
			j.Executors--
			c.activeCount--
			c.free.push(e.id)
		}
		j.held = j.held[:0]
		j.runnable = j.runnable[:0]
		c.updateHoldReady(j)
		for i, job := range c.active {
			if job == j {
				copy(c.active[i:], c.active[i+1:])
				c.active[len(c.active)-1] = nil
				c.active = c.active[:len(c.active)-1]
				break
			}
		}
		c.doneScratch = append(c.doneScratch, j)
	}
	c.touch(j)
}
