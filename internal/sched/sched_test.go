package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// deTrace returns a DE-grid synthetic trace (high variability, the grid
// the paper uses for its sweeps).
func deTrace(t testing.TB) *carbon.Trace {
	t.Helper()
	spec, err := carbon.GridByName("DE")
	if err != nil {
		t.Fatal(err)
	}
	return carbon.Synthesize(spec, 2000, 60, 17)
}

func tpchBatch(t testing.TB, n int, seed int64) []*dag.Job {
	t.Helper()
	return workload.Batch(workload.BatchConfig{N: n, MeanInterarrival: 30, Mix: workload.MixTPCH, Seed: seed})
}

func runWith(t testing.TB, s sim.Scheduler, jobs []*dag.Job, tr *carbon.Trace, k int) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{NumExecutors: k, Trace: tr, MoveDelay: 1}, jobs, s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// runHold runs in the evaluation regime: executor holding with Spark's
// 60 s idle timeout (Appendix A.1.2 semantics).
func runHold(t testing.TB, s sim.Scheduler, jobs []*dag.Job, tr *carbon.Trace, k int) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{NumExecutors: k, Trace: tr, MoveDelay: 1,
		HoldExecutors: true, IdleTimeout: 60}, jobs, s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

func TestFIFOPicksEarliestJob(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 5, 3)
	res := runWith(t, &FIFO{}, jobs, tr, 10)
	if res.ECT <= 0 || res.AvgJCT <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestFIFONames(t *testing.T) {
	if (&FIFO{}).Name() != "FIFO" {
		t.Fatal("FIFO name")
	}
	if NewKubeDefault().Name() != "default" {
		t.Fatal("default name")
	}
}

func TestDecimaDistributionIsValid(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 8, 4)
	d := NewDecima(1)
	probe := &distProbe{t: t, inner: d, rng: rand.New(rand.NewSource(1))}
	if _, err := sim.Run(sim.Config{NumExecutors: 10, Trace: tr}, jobs, probe); err != nil {
		t.Fatal(err)
	}
	if probe.checks == 0 {
		t.Fatal("distribution never probed")
	}
}

// distProbe validates a draw from Decima's distribution at every Pick,
// then delegates: the stage is an active job's runnable stage below its
// planned limit, and its relative importance lies in (0, 1].
type distProbe struct {
	t      *testing.T
	inner  *Decima
	rng    *rand.Rand
	checks int
}

func (p *distProbe) Name() string { return "probe" }
func (p *distProbe) Pick(c *sim.Cluster) sim.Decision {
	if ref, imp, ok := p.inner.Draw(c, p.rng); ok {
		if !(imp > 0 && imp <= 1) {
			p.t.Fatalf("relative importance %v outside (0, 1]", imp)
		}
		if !ref.Stage.Runnable() || ref.Stage.Running >= p.inner.PlannedLimit(c, ref) {
			p.t.Fatalf("drew job %d stage %d, which cannot take an executor", ref.Job.Job.ID, ref.Stage.Stage.ID)
		}
		if !slices.Contains(c.ActiveJobs(), ref.Job) {
			p.t.Fatalf("drew a stage of job %d, which is not active", ref.Job.Job.ID)
		}
		p.checks++
	}
	return p.inner.Pick(c)
}

func TestDecimaBeatsFIFOOnJCT(t *testing.T) {
	// The headline carbon-agnostic ordering of Table 3: Decima's average
	// JCT is well below standalone FIFO's, because FIFO over-assigns
	// executors to the head-of-line job and blocks the queue.
	tr := deTrace(t)
	jobs := tpchBatch(t, 40, 7)
	fifo := runWith(t, &FIFO{}, jobs, tr, 20)
	dec := runWith(t, NewDecima(2), jobs, tr, 20)
	if dec.AvgJCT >= fifo.AvgJCT {
		t.Fatalf("Decima JCT %v not better than FIFO %v", dec.AvgJCT, fifo.AvgJCT)
	}
}

func TestWeightedFairCarbonBelowFIFOInHoldMode(t *testing.T) {
	// Table 3: Weighted Fair saves carbon relative to standalone FIFO
	// because its work-derived grants idle far fewer held executors.
	tr := deTrace(t)
	jobs := tpchBatch(t, 40, 7)
	fifo := runHold(t, &FIFO{}, jobs, tr, 100)
	wf := runHold(t, &WeightedFair{}, jobs, tr, 100)
	if wf.CarbonGrams >= fifo.CarbonGrams {
		t.Fatalf("WeightedFair carbon %v not below FIFO %v", wf.CarbonGrams, fifo.CarbonGrams)
	}
	if wf.ECT > 1.2*fifo.ECT {
		t.Fatalf("WeightedFair ECT blew up: %v vs %v", wf.ECT, fifo.ECT)
	}
}

func TestPCAPSGammaZeroMatchesDecimaClosely(t *testing.T) {
	// γ = 0 admits every stage (Ψ₀ ≡ U ≥ c), so PCAPS degenerates to its
	// inner scheduler up to sampling; with the same seeds the runs are
	// identical decision-for-decision.
	tr := deTrace(t)
	jobs := tpchBatch(t, 20, 9)
	dec := runWith(t, NewDecima(5), jobs, tr, 20)
	pc := runWith(t, NewPCAPS(NewDecima(5), 0, 5), jobs, tr, 20)
	if pc.Deferrals != 0 {
		t.Fatalf("γ=0 deferred %d times", pc.Deferrals)
	}
	if math.Abs(pc.ECT-dec.ECT) > 0.05*dec.ECT {
		t.Fatalf("γ=0 PCAPS ECT %v far from Decima %v", pc.ECT, dec.ECT)
	}
}

func TestPCAPSReducesCarbon(t *testing.T) {
	// The headline result (Tables 2-3): moderate PCAPS reduces carbon
	// versus its carbon-agnostic inner scheduler, trading some ECT.
	tr := deTrace(t)
	jobs := tpchBatch(t, 40, 11)
	dec := runWith(t, NewDecima(3), jobs, tr, 20)
	pc := runWith(t, NewPCAPS(NewDecima(3), 0.5, 3), jobs, tr, 20)
	if pc.CarbonGrams >= dec.CarbonGrams {
		t.Fatalf("PCAPS carbon %v not below Decima %v", pc.CarbonGrams, dec.CarbonGrams)
	}
	if pc.Deferrals == 0 {
		t.Fatal("moderate PCAPS never deferred on a variable grid")
	}
	// The trade-off must be sane: ECT should not explode unboundedly.
	if pc.ECT > 5*dec.ECT {
		t.Fatalf("PCAPS ECT blew up: %v vs %v", pc.ECT, dec.ECT)
	}
}

func TestPCAPSCarbonMonotoneInGammaRoughly(t *testing.T) {
	// Figs 7/11: higher γ yields (weakly) more carbon savings. We allow
	// small non-monotonicity from sampling noise but require the
	// endpoints to be clearly ordered.
	tr := deTrace(t)
	jobs := tpchBatch(t, 30, 13)
	carbonAt := func(gamma float64) float64 {
		return runWith(t, NewPCAPS(NewDecima(3), gamma, 3), jobs, tr, 20).CarbonGrams
	}
	low, high := carbonAt(0.1), carbonAt(0.9)
	if high >= low {
		t.Fatalf("γ=0.9 carbon %v not below γ=0.1 carbon %v", high, low)
	}
}

func TestCAPReducesCarbonOnFIFO(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 40, 11)
	fifo := runWith(t, &FIFO{}, jobs, tr, 20)
	cap := NewCAP(&FIFO{}, 4) // B = K/5, the paper's moderate setting
	capRes := runWith(t, cap, jobs, tr, 20)
	if capRes.CarbonGrams >= fifo.CarbonGrams {
		t.Fatalf("CAP carbon %v not below FIFO %v", capRes.CarbonGrams, fifo.CarbonGrams)
	}
	if cap.MinQuotaSeen() < 4 || cap.MinQuotaSeen() > 20 {
		t.Fatalf("MinQuotaSeen = %d", cap.MinQuotaSeen())
	}
	if capRes.Scheduler != "CAP-FIFO" {
		t.Fatalf("name = %s", capRes.Scheduler)
	}
}

func TestCAPQuotaNeverExceededByNewAssignments(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 15, 21)
	inner := &FIFO{}
	cap := NewCAP(inner, 3)
	probe := &quotaProbe{t: t, cap: cap}
	if _, err := sim.Run(sim.Config{NumExecutors: 12, Trace: tr}, jobs, probe); err != nil {
		t.Fatal(err)
	}
}

// quotaProbe checks that whenever CAP admits work, the busy count is
// below the quota it computed.
type quotaProbe struct {
	t   *testing.T
	cap *CAPWrap
}

func (p *quotaProbe) Name() string { return "quota-probe" }
func (p *quotaProbe) Pick(c *sim.Cluster) sim.Decision {
	d := p.cap.Pick(c)
	if !d.Defer && d.MaxNew > 0 {
		prov := p.cap.provisioner(c)
		quota := prov.Quota(c.Carbon())
		if c.BusyCount()+d.MaxNew > quota {
			p.t.Fatalf("CAP admitted %d new with %d busy against quota %d",
				d.MaxNew, c.BusyCount(), quota)
		}
	}
	return d
}

func TestCAPWorkConservingKeepsQuotaAndHelpsThroughput(t *testing.T) {
	// The WorkConserving redirect must change which stage a blocked pick
	// lands on, never how much work the quota admits: the quota invariant
	// of TestCAPQuotaNeverExceededByNewAssignments holds unchanged, and
	// on a batch where FIFO's head-of-line stage saturates its carbon-
	// scaled limit (Appendix A.1.2) the makespan strictly improves.
	tr := deTrace(t)
	jobs := tpchBatch(t, 15, 21)
	wc := NewCAP(&FIFO{}, 3)
	wc.WorkConserving = true
	probe := &quotaProbe{t: t, cap: wc}
	res, err := sim.Run(sim.Config{NumExecutors: 12, Trace: tr}, jobs, probe)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Run(sim.Config{NumExecutors: 12, Trace: tr}, jobs, NewCAP(&FIFO{}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.ECT >= plain.ECT {
		t.Fatalf("work-conserving ECT %v not below blocking ECT %v", res.ECT, plain.ECT)
	}
}

func TestPCAPSBetterTradeoffThanCAPDecima(t *testing.T) {
	// Fig 13's key claim: PCAPS exhibits a strictly better carbon-vs-ECT
	// trade-off than CAP over the same inner scheduler. We check it at
	// the evaluation regime (K=100, executor holding, DE grid): for each
	// CAP-Decima point, some PCAPS point saves at least as much carbon
	// with no more ECT (after a small noise allowance).
	tr := deTrace(t)
	jobs := tpchBatch(t, 40, 23)
	k := 100
	type pt struct{ carbon, ect float64 }
	var pcaps, capd []pt
	for _, g := range []float64{0.3, 0.5, 0.7, 0.9} {
		r := runHold(t, NewPCAPS(NewDecima(3), g, 3), jobs, tr, k)
		pcaps = append(pcaps, pt{r.CarbonGrams, r.ECT})
	}
	for _, b := range []int{2, 10, 20} {
		r := runHold(t, NewCAP(NewDecima(3), b), jobs, tr, k)
		capd = append(capd, pt{r.CarbonGrams, r.ECT})
	}
	for _, c := range capd {
		dominated := false
		for _, p := range pcaps {
			if p.carbon <= c.carbon*1.02 && p.ect <= c.ect*1.02 {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("CAP point (%.0f g, %.0f s) not dominated by any PCAPS point %v", c.carbon, c.ect, pcaps)
		}
	}
}

func TestGreenHadoopRunsAndSavesCarbon(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 30, 29)
	fifo := runWith(t, &FIFO{}, jobs, tr, 20)
	gh := runWith(t, NewGreenHadoop(), jobs, tr, 20)
	if gh.Scheduler != "GreenHadoop" {
		t.Fatalf("name = %s", gh.Scheduler)
	}
	if gh.CarbonGrams >= fifo.CarbonGrams {
		t.Fatalf("GreenHadoop carbon %v not below FIFO %v", gh.CarbonGrams, fifo.CarbonGrams)
	}
}

func TestGreenHadoopThetaZeroIsNearAgnostic(t *testing.T) {
	tr := deTrace(t)
	jobs := tpchBatch(t, 15, 31)
	fifo := runWith(t, &FIFO{}, jobs, tr, 10)
	gh := runWith(t, &GreenHadoop{Theta: 0}, jobs, tr, 10)
	// θ=0 uses the brown window: it must not inflate ECT dramatically.
	if gh.ECT > 1.5*fifo.ECT {
		t.Fatalf("θ=0 GreenHadoop ECT %v vs FIFO %v", gh.ECT, fifo.ECT)
	}
}

func TestFlatGridYieldsNoPCAPSDeferrals(t *testing.T) {
	// §3 condition i): when L = U the carbon-aware scheduler must match
	// the agnostic one (CSF → 1). On a flat trace Ψγ(r) ≥ c(t) always.
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = 400
	}
	tr, err := carbon.New("flat", 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tpchBatch(t, 15, 37)
	// Even maximally carbon-aware, the Ψ-filter admits everything on a
	// flat grid (Ψγ(r) ≥ L = U = c(t) for every r, since Ψγ(0) = γL +
	// (1−γ)U = U). Note PCAPS's *parallelism* term min{·, 1−γ} still
	// throttles by design (§5.1), so ECT equality is only expected for
	// small γ.
	pc := runWith(t, NewPCAPS(NewDecima(3), 0.9, 3), jobs, tr, 10)
	if pc.Deferrals != 0 {
		t.Fatalf("flat grid deferred %d times", pc.Deferrals)
	}
	dec := runWith(t, NewDecima(3), jobs, tr, 10)
	mild := runWith(t, NewPCAPS(NewDecima(3), 0.2, 3), jobs, tr, 10)
	if mild.Deferrals != 0 {
		t.Fatalf("mild flat grid deferred %d times", mild.Deferrals)
	}
	if mild.ECT > 1.4*dec.ECT {
		t.Fatalf("flat-grid mild PCAPS ECT %v far from Decima %v", mild.ECT, dec.ECT)
	}
}

func TestFlatGridCAPMatchesInner(t *testing.T) {
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = 400
	}
	tr, err := carbon.New("flat", 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tpchBatch(t, 15, 37)
	fifo := runWith(t, &FIFO{}, jobs, tr, 10)
	cap := runWith(t, NewCAP(&FIFO{}, 2), jobs, tr, 10)
	// At L=U, Quota(c<U)=K and Quota(U)=B; the trace sits exactly at U,
	// so CAP throttles to B... unless thresholds degenerate to U. Our
	// implementation treats L=U as carbon-agnostic except exactly at U,
	// where the floor applies. ECT may grow but must stay finite and
	// carbon must not increase.
	if cap.CarbonGrams > fifo.CarbonGrams*1.01 {
		t.Fatalf("CAP increased carbon on flat grid: %v vs %v", cap.CarbonGrams, fifo.CarbonGrams)
	}
}

func TestPCAPSAlwaysProgressesWhenClusterIdle(t *testing.T) {
	// Alg. 1 line 7's liveness override: with no machines busy, even a
	// maximally carbon-aware PCAPS must schedule something, so every job
	// completes on any trace.
	spec, err := carbon.GridByName("ZA")
	if err != nil {
		t.Fatal(err)
	}
	tr := carbon.Synthesize(spec, 3000, 60, 5)
	jobs := tpchBatch(t, 10, 41)
	res := runWith(t, NewPCAPS(NewDecima(7), 1.0, 7), jobs, tr, 8)
	if res.ECT <= 0 {
		t.Fatal("PCAPS γ=1 failed to finish")
	}
}

func TestWeightedFairAlibaba(t *testing.T) {
	tr := deTrace(t)
	jobs := workload.Batch(workload.BatchConfig{N: 12, Mix: workload.MixAlibaba, Seed: 43})
	res := runWith(t, &WeightedFair{}, jobs, tr, 15)
	if res.ECT <= 0 {
		t.Fatal("WeightedFair failed on Alibaba DAGs")
	}
}

func TestPCAPSUnderRealisticForecasts(t *testing.T) {
	// Swapping the paper's oracle (L, U) for a history-only persistence
	// forecast must preserve most of PCAPS's carbon savings — the
	// robustness premise of §3 ([13]). We compare both against the same
	// carbon-agnostic baseline.
	tr := deTrace(t)
	jobs := tpchBatch(t, 40, 7)
	k := 100
	mk := func(fc carbon.Forecaster, s sim.Scheduler) *sim.Result {
		res, err := sim.Run(sim.Config{NumExecutors: k, Trace: tr, MoveDelay: 1,
			HoldExecutors: true, IdleTimeout: 60, Forecaster: fc}, jobs, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res
	}
	base := mk(nil, NewDecima(3))
	oracle := mk(nil, NewPCAPS(NewDecima(3), 0.5, 3))
	forecast := mk(carbon.Persistence{Margin: 0.05}, NewPCAPS(NewDecima(3), 0.5, 3))
	oracleSave := base.CarbonGrams - oracle.CarbonGrams
	forecastSave := base.CarbonGrams - forecast.CarbonGrams
	if oracleSave <= 0 {
		t.Fatalf("oracle PCAPS saved nothing: %v vs %v", oracle.CarbonGrams, base.CarbonGrams)
	}
	if forecastSave < 0.5*oracleSave {
		t.Fatalf("persistence forecast kept only %v of %v oracle savings", forecastSave, oracleSave)
	}
	if forecast.ECT > 1.5*oracle.ECT {
		t.Fatalf("forecast ECT blew up: %v vs %v", forecast.ECT, oracle.ECT)
	}
}

func TestPCAPSOverUniformPB(t *testing.T) {
	// Def 4.1 generality: PCAPS must interoperate with any probabilistic
	// scheduler. Under a uniform distribution every stage has relative
	// importance 1, so the filter admits everything (Ψγ(1) = U ≥ c) and
	// zero deferrals occur — PCAPS reduces to its parallelism scaling.
	tr := deTrace(t)
	jobs := tpchBatch(t, 15, 3)
	res := runHold(t, NewPCAPS(&UniformPB{Seed: 1}, 0.5, 1), jobs, tr, 50)
	if res.Deferrals != 0 {
		t.Fatalf("uniform importance deferred %d times (all r=1)", res.Deferrals)
	}
	if res.ECT <= 0 {
		t.Fatal("run failed")
	}
	base := runHold(t, &UniformPB{Seed: 1}, jobs, tr, 50)
	if res.CarbonGrams >= base.CarbonGrams {
		t.Fatalf("parallelism scaling alone saved nothing: %v vs %v", res.CarbonGrams, base.CarbonGrams)
	}
}
