// Package ablation isolates the design choices behind PCAPS (§4.1) and
// measures what each buys, per the ablation plan in DESIGN.md:
//
//   - the *shape* of the carbon-awareness threshold (the paper's
//     exponential Ψγ vs a linear ramp vs a hard step),
//   - the *importance signal* (precedence-derived relative importance vs
//     an importance-blind filter — the essential difference between PCAPS
//     and a pause/resume policy),
//   - the §5.1 carbon-scaled parallelism limit (on vs off),
//   - robustness to *forecast error* in the (L, U) bounds the threshold
//     relies on (§3 cites [13]: threshold designs remain near-optimal
//     when inputs are reasonably accurate),
//   - a suspend-resume baseline in the style of [33], which pauses the
//     whole cluster above a carbon threshold with no regard for DAG
//     structure.
package ablation

import (
	"fmt"
	"math/rand"

	"pcaps/internal/core"
	"pcaps/internal/dag"
	"pcaps/internal/metrics"
	"pcaps/internal/result"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
)

// ThresholdShape selects the admission threshold's functional form.
type ThresholdShape int

const (
	// ShapeExponential is the paper's Ψγ (one-way-trading form).
	ShapeExponential ThresholdShape = iota
	// ShapeLinear ramps linearly from γL+(1−γ)U at r=0 to U at r=1.
	ShapeLinear
	// ShapeStep admits importance above γ at any carbon and below γ
	// only at carbon ≤ γL+(1−γ)U.
	ShapeStep
)

// String implements fmt.Stringer.
func (s ThresholdShape) String() string {
	switch s {
	case ShapeExponential:
		return "exponential"
	case ShapeLinear:
		return "linear"
	case ShapeStep:
		return "step"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// FilterPCAPS is a PCAPS variant with every §4.1 design choice exposed as
// a knob, so each can be ablated independently. The default configuration
// (zero values, Gamma set) reproduces sched.PCAPS.
type FilterPCAPS struct {
	// PB is the wrapped probabilistic scheduler.
	PB sched.Probabilistic
	// Gamma is the carbon-awareness parameter.
	Gamma float64
	// Shape selects the threshold form.
	Shape ThresholdShape
	// UniformImportance discards the precedence-derived signal: every
	// sampled stage is treated as having importance γ (so admission
	// depends only on carbon) — the "importance-blind" ablation.
	UniformImportance bool
	// DisableParallelismScaling turns off the §5.1 limit scaling.
	DisableParallelismScaling bool
	// BoundsError distorts the forecast bounds the filter sees:
	// L' = L·(1+ε), U' = U·(1−ε), clamped to L' ≤ U'. Zero means exact
	// forecasts (the paper's assumption).
	BoundsError float64
	// Seed drives stage sampling.
	Seed int64

	rng *rand.Rand
}

// Name implements sim.Scheduler.
func (f *FilterPCAPS) Name() string {
	return fmt.Sprintf("PCAPS[%s,uniform=%t,noscale=%t,eps=%.2f]",
		f.Shape, f.UniformImportance, f.DisableParallelismScaling, f.BoundsError)
}

// bounds returns the (possibly distorted) forecast bounds.
func (f *FilterPCAPS) bounds(c *sim.Cluster) (float64, float64) {
	l, u := c.CarbonBounds()
	if l <= 0 {
		l = 1e-3
	}
	if f.BoundsError != 0 {
		l *= 1 + f.BoundsError
		u *= 1 - f.BoundsError
		if u < l {
			l, u = (l+u)/2, (l+u)/2
		}
	}
	if u < l {
		u = l
	}
	return l, u
}

// threshold evaluates the selected threshold form at importance r.
func (f *FilterPCAPS) threshold(r, l, u float64) float64 {
	base := f.Gamma*l + (1-f.Gamma)*u
	switch f.Shape {
	case ShapeLinear:
		return base + (u-base)*r
	case ShapeStep:
		if r >= f.Gamma {
			return u
		}
		return base
	default:
		psi, err := core.NewPsi(f.Gamma, l, u)
		if err != nil {
			return u
		}
		return psi.Value(r)
	}
}

// Pick implements sim.Scheduler, mirroring Algorithm 1 with the
// configured variations.
func (f *FilterPCAPS) Pick(c *sim.Cluster) sim.Decision {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	ref, r, ok := f.PB.Draw(c, f.rng)
	if !ok {
		return sim.DeferDecision
	}
	if f.UniformImportance {
		r = f.Gamma
	}
	l, u := f.bounds(c)
	if f.threshold(r, l, u) < c.Carbon() && c.BusyCount() > 0 {
		c.NoteDeferral(ref)
		return sim.DeferDecision
	}
	planned := f.PB.PlannedLimit(c, ref)
	limit := planned
	if !f.DisableParallelismScaling {
		if psi, err := core.NewPsi(f.Gamma, l, u); err == nil {
			limit = psi.ParallelismLimit(planned, c.Carbon())
		}
	}
	return sim.Decision{Ref: ref, Limit: limit}
}

// SuspendResume is the [33]-style baseline: a single carbon threshold
// pauses all new work cluster-wide, with no knowledge of DAG structure or
// task importance. Theta ∈ [0, 1] places the pause threshold at
// θL + (1−θ)U; lower values pause more aggressively.
type SuspendResume struct {
	// Inner schedules whenever the cluster is unpaused.
	Inner sim.Scheduler
	// Theta positions the pause threshold between L and U.
	Theta float64
}

// Name implements sim.Scheduler.
func (s *SuspendResume) Name() string { return fmt.Sprintf("SuspendResume-%s", s.Inner.Name()) }

// Pick implements sim.Scheduler.
func (s *SuspendResume) Pick(c *sim.Cluster) sim.Decision {
	l, u := c.CarbonBounds()
	threshold := s.Theta*l + (1-s.Theta)*u
	if c.Carbon() > threshold && c.BusyCount() > 0 {
		return sim.DeferDecision
	}
	return s.Inner.Pick(c)
}

// Outcome is one variant's measured behaviour.
type Outcome struct {
	Name        string
	CarbonGrams float64
	ECT, AvgJCT float64
	Deferrals   int
}

// Compare runs every variant on the same batch and configuration and
// returns the outcomes in input order, with the carbon-agnostic baseline
// first.
func Compare(cfg sim.Config, jobs []*dag.Job, baseline sim.Scheduler, variants []sim.Scheduler) ([]Outcome, error) {
	return CompareWith(cfg, jobs, baseline, variants, nil)
}

// CompareWith is Compare with an injectable fan-out: each runs fn(i) for
// every index in [0, n), possibly concurrently (the simulations are
// independent — sim.Run clones the job templates). A nil each runs the
// suite serially. Outcomes come back in input order either way.
func CompareWith(cfg sim.Config, jobs []*dag.Job, baseline sim.Scheduler, variants []sim.Scheduler,
	each func(n int, fn func(i int))) ([]Outcome, error) {
	scheds := append([]sim.Scheduler{baseline}, variants...)
	outs := make([]Outcome, len(scheds))
	errs := make([]error, len(scheds))
	run := func(i int) {
		s := scheds[i]
		res, err := sim.Run(cfg, jobs, s)
		if err != nil {
			errs[i] = fmt.Errorf("ablation: %s: %w", s.Name(), err)
			return
		}
		outs[i] = Outcome{
			Name: s.Name(), CarbonGrams: res.CarbonGrams,
			ECT: res.ECT, AvgJCT: res.AvgJCT, Deferrals: res.Deferrals,
		}
	}
	if each == nil {
		for i := range scheds {
			run(i)
		}
	} else {
		each(len(scheds), run)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// Table formats outcomes as a typed result.Table relative to the first
// (baseline) row.
func Table(outs []Outcome) *result.Table {
	t := &result.Table{
		Name: "ablations",
		Columns: []result.Column{
			{Name: "variant", Kind: result.KindString, Header: "variant", HeaderFormat: "%-44s", Format: "%-44s"},
			{Name: "co2_delta_pct", Kind: result.KindFloat, Prec: 1, Header: "ΔCO2", HeaderFormat: " %12s", Format: " %+11.1f%%"},
			{Name: "relative_ect", Kind: result.KindFloat, Prec: 3, Header: "rel.ECT", HeaderFormat: " %10s", Format: " %10.3f"},
			{Name: "relative_jct", Kind: result.KindFloat, Prec: 3, Header: "rel.JCT", HeaderFormat: " %10s", Format: " %10.3f"},
			{Name: "deferrals", Kind: result.KindInt, Header: "defers", HeaderFormat: " %8s", Format: " %8d"},
		},
	}
	if len(outs) == 0 {
		return t
	}
	base := outs[0]
	for _, o := range outs {
		t.Row(result.Str(o.Name),
			result.Float(metrics.PercentChange(o.CarbonGrams, base.CarbonGrams)),
			result.Float(safeRatio(o.ECT, base.ECT)),
			result.Float(safeRatio(o.AvgJCT, base.AvgJCT)),
			result.Int(o.Deferrals))
	}
	return t
}

// Render formats outcomes as fixed-width text, the Table's text form.
func Render(outs []Outcome) string {
	if len(outs) == 0 {
		return ""
	}
	return result.New().Add(Table(outs)).Body()
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
