package sched

import (
	"math"
	"math/rand"

	"pcaps/internal/sim"
)

// Probabilistic is the class of schedulers PCAPS interfaces with
// (Def. 4.1): at each scheduling event it holds a probability
// distribution over the runnable stages, from which the next scheduled
// stage is sampled.
type Probabilistic interface {
	sim.Scheduler
	// Draw samples a stage v from the distribution p (Def. 4.1) and
	// returns it with its relative importance p_v / max_u p_u (Def. 4.2).
	// u supplies the uniform variate: Draw calls u.Float64 exactly once
	// when the distribution has a stage and not at all otherwise, so a
	// caller that passes its *rand.Rand consumes the stream exactly as
	// sampling an explicit probability vector would. ok is false when no
	// stage can be scheduled.
	Draw(c *sim.Cluster, u Uniform) (ref sim.StageRef, importance float64, ok bool)
	// PlannedLimit returns the parallelism limit the scheduler would
	// assign the stage absent any carbon awareness (the P that PCAPS
	// scales down, §5.1).
	PlannedLimit(c *sim.Cluster, ref sim.StageRef) int
}

// Uniform supplies a uniform variate in [0, 1); *rand.Rand is one.
type Uniform interface {
	Float64() float64
}

// pickFrom is the carbon-agnostic Pick of a probabilistic scheduler:
// sample a stage with the scheduler's own stream (created from seed on
// first use) and schedule it at its planned limit.
//
//pcaps:hotpath
func pickFrom(pb Probabilistic, c *sim.Cluster, rng **rand.Rand, seed int64) sim.Decision {
	if *rng == nil {
		*rng = rand.New(rand.NewSource(seed))
	}
	ref, _, ok := pb.Draw(c, *rng)
	if !ok {
		return sim.DeferDecision
	}
	return sim.Decision{Ref: ref, Limit: pb.PlannedLimit(c, ref)}
}

// Decima is the Decima-like probabilistic scheduler — the substitution for
// the paper's GNN+RL scheduler [48] documented in DESIGN.md. Per-stage
// scores combine the two signals Decima's learned policy is known to
// encode: bottleneck pressure (downstream critical-path work within the
// job) and shortest-remaining-work-first across jobs. A masked softmax
// over runnable stages yields the distribution, exactly the interface
// Def. 4.1 requires; the next stage is sampled from it.
type Decima struct {
	// CPWeight and SRPTWeight scale the two score components; the
	// defaults (3, 4) were tuned so Decima beats FIFO on JCT across the
	// TPC-H and Alibaba workloads while keeping the distribution spread
	// informative for PCAPS's relative-importance signal.
	CPWeight, SRPTWeight float64
	// Temperature divides scores before the softmax; lower is greedier.
	Temperature float64
	// Seed drives stage sampling.
	Seed int64

	rng *rand.Rand
	// dist is the distribution, kept incrementally across Picks on one
	// cluster.
	dist softmax
}

// NewDecima returns a Decima-like scheduler with tuned defaults.
func NewDecima(seed int64) *Decima {
	return &Decima{CPWeight: 3, SRPTWeight: 4, Temperature: 1, Seed: seed}
}

// Name implements sim.Scheduler.
func (d *Decima) Name() string { return "Decima" }

// Draw implements Probabilistic. Stage v of job j scores
// (CPWeight·min(cp_v/R_j, 1) − SRPTWeight·R_j/max R) / Temperature, from
// its downstream critical-path work cp_v and the job's remaining work
// R_j, and p_v is the softmax of the scores. The distribution masks not
// only non-runnable stages but also stages already saturated under the
// planned executor cap, so every sampled action is executable (the
// masked-softmax semantics of Decima's action space).
//
// Each event changes one job, so the distribution is kept per job and
// recomputed only for the jobs whose state moved (DESIGN.md §2.2).
//
//pcaps:hotpath
func (d *Decima) Draw(c *sim.Cluster, u Uniform) (sim.StageRef, float64, bool) {
	cpW, srptW, temp := d.CPWeight, d.SRPTWeight, d.Temperature
	if cpW == 0 && srptW == 0 {
		cpW, srptW = 3, 4
	}
	if temp <= 0 {
		temp = 1
	}
	d.dist.configure(cpW, srptW, temp, true)
	return d.dist.draw(c, u)
}

// GrantDivisor tunes the work-derived per-job executor cap used by the
// carbon-agnostic managed schedulers: a job with w executor-seconds of
// remaining work is granted about w/GrantDivisor executors. This encodes
// the diminishing returns of parallelism that Decima's learned policy
// discovers ([48] §5.2: "more executors are not necessarily better") —
// modest per-job parallelism keeps executors productive instead of idling
// at stage barriers, which is where Decima's carbon advantage over the
// over-granting FIFO comes from (Table 3).
const GrantDivisor = 40

// grantShare returns the even split of the cluster across active jobs,
// ⌈K/active⌉, that bounds every job's grant cap.
//
//pcaps:hotpath
func grantShare(c *sim.Cluster) int {
	active := len(c.ActiveJobs())
	if active < 1 {
		active = 1
	}
	return (c.K() + active - 1) / active
}

// workCap returns the per-job grant cap for a job with the given
// remaining work, bounded by the even split share.
//
//pcaps:hotpath
func workCap(share int, remaining float64) int {
	cap := int(math.Ceil(remaining / GrantDivisor))
	if cap > share {
		cap = share
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// plannedLimit is PlannedLimit for a stage whose job's grant cap is
// jobCap.
//
//pcaps:hotpath
func plannedLimit(st *sim.StageRun, jobCap int) int {
	limit := st.RemainingTasks() + st.Running
	if limit > jobCap {
		limit = jobCap
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// PlannedLimit implements Probabilistic: the stage may use up to its
// remaining tasks, capped by the job's work-derived executor grant — the
// executor-cap component of Decima's action space ([48] §5.2) that
// prevents one job from hogging (and idling) cluster resources.
//
//pcaps:hotpath
func (d *Decima) PlannedLimit(c *sim.Cluster, ref sim.StageRef) int {
	return plannedLimit(ref.Stage, workCap(grantShare(c), ref.Job.RemainingWork()))
}

// Pick implements sim.Scheduler: sample a stage from the distribution and
// schedule it with the planned limit (carbon-agnostic behaviour).
//
//pcaps:hotpath
func (d *Decima) Pick(c *sim.Cluster) sim.Decision {
	return pickFrom(d, c, &d.rng, d.Seed)
}

// UniformPB is the simplest member of the Def. 4.1 class: a uniform
// distribution over runnable stages. It exists to demonstrate (and test)
// that PCAPS interoperates with any probabilistic scheduler, not just
// the Decima-like one — under UniformPB every stage has relative
// importance 1, so PCAPS degenerates to pure carbon-aware provisioning.
type UniformPB struct {
	// Seed drives sampling.
	Seed int64
	rng  *rand.Rand
	// dist is the distribution: every score 0, nothing masked.
	dist softmax
}

// Name implements sim.Scheduler.
func (u *UniformPB) Name() string { return "UniformPB" }

// Draw implements Probabilistic with equal mass per runnable stage.
//
//pcaps:hotpath
func (u *UniformPB) Draw(c *sim.Cluster, v Uniform) (sim.StageRef, float64, bool) {
	u.dist.configure(0, 0, 1, false)
	return u.dist.draw(c, v)
}

// PlannedLimit implements Probabilistic: up to the stage's remaining
// tasks.
//
//pcaps:hotpath
func (u *UniformPB) PlannedLimit(c *sim.Cluster, ref sim.StageRef) int {
	if n := ref.Stage.RemainingTasks() + ref.Stage.Running; n > 0 {
		return n
	}
	return 1
}

// Pick implements sim.Scheduler.
//
//pcaps:hotpath
func (u *UniformPB) Pick(c *sim.Cluster) sim.Decision {
	return pickFrom(u, c, &u.rng, u.Seed)
}
