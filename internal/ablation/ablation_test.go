package ablation

import (
	"math"
	"strings"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func setup(t testing.TB) (sim.Config, []*dag.Job) {
	t.Helper()
	spec, err := carbon.GridByName("DE")
	if err != nil {
		t.Fatal(err)
	}
	tr := carbon.Synthesize(spec, 3000, 60, 17)
	jobs := workload.Batch(workload.BatchConfig{N: 40, MeanInterarrival: 30, Mix: workload.MixTPCH, Seed: 23})
	cfg := sim.Config{NumExecutors: 100, Trace: tr, MoveDelay: 1,
		HoldExecutors: true, IdleTimeout: 60}
	return cfg, jobs
}

func runOne(t testing.TB, cfg sim.Config, jobs []*dag.Job, s sim.Scheduler) *sim.Result {
	t.Helper()
	res, err := sim.Run(cfg, jobs, s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

func TestDefaultVariantMatchesPCAPS(t *testing.T) {
	// FilterPCAPS with defaults is behaviourally equivalent to
	// sched.PCAPS (same admission rule, same sampling seed).
	cfg, jobs := setup(t)
	a := runOne(t, cfg, jobs, sched.NewPCAPS(sched.NewDecima(3), 0.5, 3))
	b := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.5, Seed: 3})
	if math.Abs(a.CarbonGrams-b.CarbonGrams) > 1e-6 || math.Abs(a.ECT-b.ECT) > 1e-6 {
		t.Fatalf("variant diverged from PCAPS: %v/%v vs %v/%v",
			a.CarbonGrams, a.ECT, b.CarbonGrams, b.ECT)
	}
}

func TestImportanceSignalMatters(t *testing.T) {
	// The importance-blind filter (uniform importance) must pay more
	// completion time per unit of carbon saved than true PCAPS: without
	// the precedence signal, bottleneck stages get deferred too.
	cfg, jobs := setup(t)
	aware := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.7, Seed: 3})
	blind := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.7, UniformImportance: true, Seed: 3})
	base := runOne(t, cfg, jobs, sched.NewDecima(3))
	awareEff := (base.CarbonGrams - aware.CarbonGrams) / math.Max(aware.ECT-base.ECT, 1)
	blindEff := (base.CarbonGrams - blind.CarbonGrams) / math.Max(blind.ECT-base.ECT, 1)
	if awareEff <= blindEff {
		t.Fatalf("precedence-aware efficiency %v not above importance-blind %v "+
			"(aware %v g / %v s, blind %v g / %v s, base %v g / %v s)",
			awareEff, blindEff, aware.CarbonGrams, aware.ECT,
			blind.CarbonGrams, blind.ECT, base.CarbonGrams, base.ECT)
	}
}

func TestThresholdShapesAllSaveCarbon(t *testing.T) {
	cfg, jobs := setup(t)
	base := runOne(t, cfg, jobs, sched.NewDecima(3))
	for _, shape := range []ThresholdShape{ShapeExponential, ShapeLinear, ShapeStep} {
		v := &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.6, Shape: shape, Seed: 3}
		r := runOne(t, cfg, jobs, v)
		if r.CarbonGrams >= base.CarbonGrams {
			t.Fatalf("%v shape saved nothing: %v vs %v", shape, r.CarbonGrams, base.CarbonGrams)
		}
	}
}

func TestForecastErrorDegradesGracefully(t *testing.T) {
	// §3 / [13]: threshold designs tolerate modest forecast error. A 10%
	// distortion of (L, U) must not destroy savings or blow up ECT.
	cfg, jobs := setup(t)
	base := runOne(t, cfg, jobs, sched.NewDecima(3))
	exact := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.6, Seed: 3})
	noisy := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.6, BoundsError: 0.10, Seed: 3})
	exactSave := base.CarbonGrams - exact.CarbonGrams
	noisySave := base.CarbonGrams - noisy.CarbonGrams
	if noisySave < 0.3*exactSave {
		t.Fatalf("10%% forecast error collapsed savings: %v vs %v", noisySave, exactSave)
	}
	if noisy.ECT > 2*exact.ECT {
		t.Fatalf("10%% forecast error blew up ECT: %v vs %v", noisy.ECT, exact.ECT)
	}
}

func TestParallelismScalingContributes(t *testing.T) {
	// Disabling the §5.1 parallelism scaling must reduce carbon savings
	// (the limit is one of the two carbon levers).
	cfg, jobs := setup(t)
	on := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.6, Seed: 3})
	off := runOne(t, cfg, jobs, &FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.6, DisableParallelismScaling: true, Seed: 3})
	if on.CarbonGrams >= off.CarbonGrams {
		t.Fatalf("parallelism scaling saved nothing: on %v vs off %v", on.CarbonGrams, off.CarbonGrams)
	}
}

func TestSuspendResumeIsBluntInstrument(t *testing.T) {
	// Suspend-resume saves carbon but at a JCT cost well above PCAPS's
	// for comparable savings — precedence-blindness has a price.
	cfg, jobs := setup(t)
	base := runOne(t, cfg, jobs, sched.NewDecima(3))
	sr := runOne(t, cfg, jobs, &SuspendResume{Inner: sched.NewDecima(3), Theta: 0.5})
	if sr.CarbonGrams >= base.CarbonGrams {
		t.Fatalf("suspend-resume saved nothing: %v vs %v", sr.CarbonGrams, base.CarbonGrams)
	}
	if sr.AvgJCT <= base.AvgJCT {
		t.Fatalf("suspend-resume should cost JCT: %v vs %v", sr.AvgJCT, base.AvgJCT)
	}
}

func TestCompareAndRender(t *testing.T) {
	cfg, jobs := setup(t)
	outs, err := Compare(cfg, jobs, sched.NewDecima(3), []sim.Scheduler{
		&FilterPCAPS{PB: sched.NewDecima(3), Gamma: 0.5, Seed: 3},
		&SuspendResume{Inner: sched.NewDecima(3), Theta: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	text := Render(outs)
	if !strings.Contains(text, "Decima") || !strings.Contains(text, "SuspendResume") {
		t.Fatalf("render missing rows:\n%s", text)
	}
	if Render(nil) != "" {
		t.Fatal("empty render not empty")
	}
}

func TestShapeString(t *testing.T) {
	if ShapeExponential.String() != "exponential" || ShapeLinear.String() != "linear" || ShapeStep.String() != "step" {
		t.Fatal("shape names")
	}
}
