package sched

import (
	"fmt"
	"math"
	"math/rand"

	"pcaps/internal/core"
	"pcaps/internal/sim"
)

// boundsKey caches threshold structures per forecast window; thresholds
// only change when the (L, U) forecast changes.
type boundsKey struct{ l, u float64 }

// CAPWrap applies CAP (§4.2) on top of any carbon-agnostic scheduler: a
// quota r(t) from the k-search thresholds gates new executor assignments
// (no preemption), and the inner scheduler's parallelism limit is scaled
// by r(t)/K (§5.1).
type CAPWrap struct {
	// Inner is the wrapped carbon-agnostic scheduler.
	Inner sim.Scheduler
	// B is the minimum machine quota guaranteeing progress.
	B int
	// WorkConserving redirects a pick the cluster cannot act on — the
	// inner's chosen stage already runs at its carbon-scaled limit but
	// still has undispatched tasks, so the assignment loop would bind
	// zero executors and abort the round (head-of-line blocking,
	// Appendix A.1.2) — to the first runnable stage that can accept an
	// executor, still under the quota and the scaled per-stage limit.
	// Off by default: the historical behaviour lets the round abort,
	// and the recorded experiment goldens pin it.
	WorkConserving bool

	caps     map[boundsKey]*core.CAP
	minQuota int
}

// NewCAP wraps inner with a CAP provisioner using minimum quota b.
func NewCAP(inner sim.Scheduler, b int) *CAPWrap {
	return &CAPWrap{Inner: inner, B: b, caps: map[boundsKey]*core.CAP{}, minQuota: math.MaxInt}
}

// Name implements sim.Scheduler.
func (w *CAPWrap) Name() string { return fmt.Sprintf("CAP-%s", w.Inner.Name()) }

// MinQuotaSeen returns M(B,c) over the run (math.MaxInt before any Pick).
func (w *CAPWrap) MinQuotaSeen() int { return w.minQuota }

// provisioner returns the CAP instance for the current forecast window.
func (w *CAPWrap) provisioner(c *sim.Cluster) *core.CAP {
	l, u := c.CarbonBounds()
	if l <= 0 {
		l = 1e-3
	}
	if u < l {
		u = l
	}
	key := boundsKey{l, u}
	if p, ok := w.caps[key]; ok {
		return p
	}
	b := w.B
	if b < 1 {
		b = 1
	}
	if b > c.K() {
		b = c.K()
	}
	p, err := core.NewCAP(c.K(), b, l, u)
	if err != nil {
		// Inputs are sanitized above; treat failure as carbon-agnostic.
		p, _ = core.NewCAP(c.K(), c.K(), l, u)
	}
	w.caps[key] = p
	return p
}

// Pick implements sim.Scheduler.
//
//pcaps:hotpath
func (w *CAPWrap) Pick(c *sim.Cluster) sim.Decision {
	p := w.provisioner(c)
	quota := p.Quota(c.Carbon())
	if quota < w.minQuota {
		w.minQuota = quota
	}
	headroom := quota - c.BusyCount()
	if headroom <= 0 {
		return sim.DeferDecision
	}
	d := w.Inner.Pick(c)
	if d.Defer || d.Ref.Stage == nil {
		return d
	}
	planned := d.Limit
	if planned < 1 || planned > d.Ref.Stage.Stage.NumTasks {
		planned = d.Ref.Stage.Stage.NumTasks
	}
	d.Limit = p.ParallelismLimit(planned, c.Carbon())
	if w.WorkConserving && !refAccepts(c, d.Ref, d.Limit) {
		d = w.redirect(c, p)
		if d.Defer {
			return d
		}
	}
	if d.MaxNew < 1 || d.MaxNew > headroom {
		d.MaxNew = headroom
	}
	return d
}

// refAccepts reports whether the stage can take at least one new executor
// under the limit in force and the cluster's per-job cap — i.e. whether
// the assignment loop would bind anything for this decision.
//
//pcaps:hotpath
func refAccepts(c *sim.Cluster, ref sim.StageRef, limit int) bool {
	if ref.Stage.Running >= limit || ref.Stage.RemainingTasks() == 0 {
		return false
	}
	if cap := c.PerJobCap(); cap > 0 && ref.Job.Executors >= cap {
		return false
	}
	return true
}

// redirect is the WorkConserving fallback: the first runnable stage (the
// view is job-major in arrival order) that can accept an executor under
// its carbon-scaled limit, or a deferral when every stage is saturated.
//
//pcaps:hotpath
func (w *CAPWrap) redirect(c *sim.Cluster, p *core.CAP) sim.Decision {
	carbon := c.Carbon()
	for _, ref := range c.Runnable() {
		lim := p.ParallelismLimit(ref.Stage.Stage.NumTasks, carbon)
		if refAccepts(c, ref, lim) {
			return sim.Decision{Ref: ref, Limit: lim}
		}
	}
	return sim.DeferDecision
}

// PCAPS is the paper's primary contribution (§4.1, Alg. 1): a carbon-
// awareness filter over a probabilistic scheduler. At each scheduling
// event it samples a stage from the inner distribution, computes its
// relative importance r (Def. 4.2), and schedules it iff Ψγ(r) ≥ c(t) or
// no machine is busy; otherwise the cluster idles until the next event.
// Scheduled stages get the carbon-scaled parallelism limit of §5.1.
type PCAPS struct {
	// PB is the wrapped probabilistic scheduler.
	PB Probabilistic
	// Gamma is the carbon-awareness knob γ ∈ [0,1].
	Gamma float64
	// Seed drives stage sampling.
	Seed int64

	psis map[boundsKey]*core.Psi
	rng  *rand.Rand
}

// NewPCAPS wraps a probabilistic scheduler with carbon-awareness γ.
func NewPCAPS(pb Probabilistic, gamma float64, seed int64) *PCAPS {
	return &PCAPS{PB: pb, Gamma: gamma, Seed: seed, psis: map[boundsKey]*core.Psi{}}
}

// Name implements sim.Scheduler.
func (p *PCAPS) Name() string { return "PCAPS" }

// psi returns the threshold function for the current forecast window.
func (p *PCAPS) psi(c *sim.Cluster) *core.Psi {
	l, u := c.CarbonBounds()
	if l <= 0 {
		l = 1e-3
	}
	if u < l {
		u = l
	}
	key := boundsKey{l, u}
	if ps, ok := p.psis[key]; ok {
		return ps
	}
	ps, err := core.NewPsi(p.Gamma, l, u)
	if err != nil {
		ps, _ = core.NewPsi(0, l, u) // sanitized inputs; fall back to agnostic
	}
	p.psis[key] = ps
	return ps
}

// Pick implements sim.Scheduler (Alg. 1 lines 4-10): sample a stage and
// its relative importance from the inner distribution, and admit it iff
// Ψγ(r) ≥ c(t) or no machine is busy.
//
//pcaps:hotpath
func (p *PCAPS) Pick(c *sim.Cluster) sim.Decision {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	ref, r, ok := p.PB.Draw(c, p.rng)
	if !ok {
		return sim.DeferDecision
	}
	psi := p.psi(c)
	if !psi.Admits(r, c.Carbon()) && c.BusyCount() > 0 {
		c.NoteDeferral(ref)
		return sim.DeferDecision
	}
	planned := p.PB.PlannedLimit(c, ref)
	return sim.Decision{Ref: ref, Limit: psi.ParallelismLimit(planned, c.Carbon())}
}
