package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcaps/internal/core"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// referenceDistribution is the distribution a Probabilistic policy
// samples from, computed from scratch by the linear pass that the
// incremental sampler replaced: the runnable refs in view order and their
// probabilities. For Decima that is the pass as it was before any of its
// inputs were memoized: remaining work from a fresh stage loop per job
// and call, the critical-path vector from a fresh dag.Job.CriticalPathWorkDown per
// call, the grant cap recomputed per ref, the softmax shifted by the
// largest score and summed in view order.
func referenceDistribution(pb Probabilistic, c *sim.Cluster) ([]sim.StageRef, []float64) {
	if _, ok := pb.(*UniformPB); ok {
		runnable := c.Runnable()
		probs := make([]float64, len(runnable))
		for i := range probs {
			probs[i] = 1 / float64(len(runnable))
		}
		return runnable, probs
	}
	d := pb.(*Decima)
	remains := map[*sim.JobRun]float64{}
	remainingWork := func(j *sim.JobRun) float64 {
		if w, ok := remains[j]; ok {
			return w
		}
		var w float64
		for _, s := range j.Stages {
			w += float64(s.Stage.NumTasks-s.Completed) * s.Stage.TaskDuration
		}
		remains[j] = w
		return w
	}
	plannedLimit := func(ref sim.StageRef) int {
		limit := ref.Stage.RemainingTasks() + ref.Stage.Running
		active := len(c.ActiveJobs())
		if active < 1 {
			active = 1
		}
		share := (c.K() + active - 1) / active
		cap := int(math.Ceil(remainingWork(ref.Job) / GrantDivisor))
		if cap > share {
			cap = share
		}
		if cap < 1 {
			cap = 1
		}
		if limit > cap {
			limit = cap
		}
		if limit < 1 {
			limit = 1
		}
		return limit
	}
	var runnable []sim.StageRef
	for _, r := range c.Runnable() {
		if r.Stage.Running < plannedLimit(r) {
			runnable = append(runnable, r)
		}
	}
	if len(runnable) == 0 {
		return nil, nil
	}
	cpW, srptW, temp := d.CPWeight, d.SRPTWeight, d.Temperature
	if cpW == 0 && srptW == 0 {
		cpW, srptW = 3, 4
	}
	if temp <= 0 {
		temp = 1
	}
	maxRemain := 0.0
	var jobRemain []float64
	var lastJob *sim.JobRun
	var lastRemain float64
	for _, r := range runnable {
		if r.Job != lastJob {
			lastJob = r.Job
			lastRemain = remainingWork(r.Job)
			if lastRemain > maxRemain {
				maxRemain = lastRemain
			}
		}
		jobRemain = append(jobRemain, lastRemain)
	}
	scores := make([]float64, len(runnable))
	maxScore := math.Inf(-1)
	cps := map[*sim.JobRun][]float64{}
	for i, r := range runnable {
		cp, ok := cps[r.Job]
		if !ok {
			cp = r.Job.Job.CriticalPathWorkDown()
			cps[r.Job] = cp
		}
		cpNorm := 0.0
		if jobRemain[i] > 0 {
			cpNorm = cp[r.Stage.Stage.ID] / jobRemain[i]
			if cpNorm > 1 {
				cpNorm = 1
			}
		}
		srptNorm := 0.0
		if maxRemain > 0 {
			srptNorm = jobRemain[i] / maxRemain
		}
		scores[i] = (cpW*cpNorm - srptW*srptNorm) / temp
		if scores[i] > maxScore {
			maxScore = scores[i]
		}
	}
	probs := make([]float64, len(scores))
	var sum float64
	for i, s := range scores {
		probs[i] = math.Exp(s - maxScore)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return runnable, probs
}

// sampleIndex is the linear sampler the tree replaced: the first index
// whose cumulative probability exceeds x, or the last index.
func sampleIndex(x float64, probs []float64) int {
	var cum float64
	for i, pr := range probs {
		cum += pr
		if x < cum {
			return i
		}
	}
	return len(probs) - 1
}

// nearBoundary reports whether x lies within 1e-12 of either cumulative
// boundary of index v, where the two samplers' summation orders may
// round it to different sides.
func nearBoundary(x float64, probs []float64, v int) bool {
	var lo float64
	for _, pr := range probs[:v] {
		lo += pr
	}
	return math.Abs(x-lo) < 1e-12 || math.Abs(x-(lo+probs[v])) < 1e-12
}

// decimaVariants are the weightings the oracle test checks: the tuned
// defaults, the zero-weight fallback, non-default weights and
// temperatures on both sides of 1, and two low temperatures. At 0.01
// the scores span −400 to 300; at 0.002 they span −2000 to 1500, where
// an unshifted exp overflows and a shift by the scores' upper bound
// underflows whenever the largest score sits far below it.
func decimaVariants() []*Decima {
	return []*Decima{
		NewDecima(1),
		{},
		{CPWeight: 1.5, SRPTWeight: 7, Temperature: 0.3},
		{CPWeight: 5, SRPTWeight: 0.5, Temperature: 2.5},
		{CPWeight: -2, SRPTWeight: 3, Temperature: -1},
		{CPWeight: 3, SRPTWeight: 4, Temperature: 0.01},
		{CPWeight: 3, SRPTWeight: 4, Temperature: 0.002},
	}
}

// fixed is a Uniform that returns one value.
type fixed float64

func (f fixed) Float64() float64 { return float64(f) }

// noVariate is the Uniform handed to a draw from an empty distribution,
// which must not take a variate.
type noVariate struct{ t *testing.T }

func (n noVariate) Float64() float64 {
	n.t.Fatal("Draw took a variate from an empty distribution")
	return 0
}

// drawStats counts checked draws and draws too near a boundary to
// compare.
type drawStats struct{ draws, near int }

// checkDraw is the differential oracle for one draw: pb.Draw on c with
// the variate u yields must pick the ref referenceDistribution plus
// sampleIndex pick for the same variate, with the importance
// core.RelativeImportance gives it to within 1e-12 relative. A variate
// within 1e-12 of a cumulative boundary is counted instead of compared.
// It returns pb's draw.
func checkDraw(t *testing.T, where string, pb Probabilistic, c *sim.Cluster, u Uniform, st *drawStats) (sim.StageRef, float64, bool) {
	t.Helper()
	refs, probs := referenceDistribution(pb, c)
	if len(refs) == 0 {
		ref, _, ok := pb.Draw(c, noVariate{t})
		if ok {
			t.Fatalf("%s: %s drew job %d stage %d from an empty distribution", where, pb.Name(), ref.Job.Job.ID, ref.Stage.Stage.ID)
		}
		return ref, 0, false
	}
	x := u.Float64()
	ref, imp, ok := pb.Draw(c, fixed(x))
	if !ok {
		t.Fatalf("%s: %s drew nothing from %d refs", where, pb.Name(), len(refs))
	}
	st.draws++
	v := sampleIndex(x, probs)
	if nearBoundary(x, probs, v) {
		st.near++
		return ref, imp, ok
	}
	if ref != refs[v] {
		t.Fatalf("%s: %s drew job %d stage %d at x=%v, reference job %d stage %d (ref %d of %d)", where, pb.Name(),
			ref.Job.Job.ID, ref.Stage.Stage.ID, x, refs[v].Job.Job.ID, refs[v].Stage.Stage.ID, v, len(refs))
	}
	if want := core.RelativeImportance(probs, v); math.Abs(imp-want) > 1e-12*want {
		t.Fatalf("%s: %s importance %v, reference %v", where, pb.Name(), imp, want)
	}
	return ref, imp, ok
}

// drawOracle is a Probabilistic policy that checks every draw of its
// inner policy with checkDraw; its Pick is the inner policy's own. At
// each draw it also checks every Decima weighting, with a variate of its
// own: the variants persist across draws, so their trees meet the state
// changes between events. At draws 10, 20, 40, 80, … it restores a
// snapshot of the cluster and checks the inner instance there, before
// the run moves it back to the live cluster; it keeps those snapshots.
type drawOracle struct {
	t        *testing.T
	inner    Probabilistic
	seed     int64
	rng      *rand.Rand
	variants []*Decima
	variates *rand.Rand
	stats    drawStats
	nextSnap int
	snaps    []*sim.Snapshot
}

func (o *drawOracle) Name() string { return o.inner.Name() }
func (o *drawOracle) PlannedLimit(c *sim.Cluster, ref sim.StageRef) int {
	return o.inner.PlannedLimit(c, ref)
}
func (o *drawOracle) Pick(c *sim.Cluster) sim.Decision { return pickFrom(o, c, &o.rng, o.seed) }
func (o *drawOracle) Draw(c *sim.Cluster, u Uniform) (sim.StageRef, float64, bool) {
	for _, d := range o.variants {
		checkDraw(o.t, "live variant", d, c, o.variates, &o.stats)
	}
	if o.stats.draws >= o.nextSnap {
		o.nextSnap *= 2
		snap := c.Snapshot()
		o.snaps = append(o.snaps, snap)
		rc, err := snap.Restore()
		if err != nil {
			o.t.Fatal(err)
		}
		checkDraw(o.t, "moved to restored", o.inner, rc, o.variates, &o.stats)
		checkDraw(o.t, "restored, again", o.inner, rc, o.variates, &o.stats)
	}
	return checkDraw(o.t, "live", o.inner, c, u, &o.stats)
}

// TestDistributionMatchesReference is the differential oracle for the
// incremental sampler: Decima, PCAPS, CAP-Decima and UniformPB, in Run,
// hold mode and RunStream, with and without a per-job cap, draw at every
// Pick what the linear reference draws for the same variate, live and on
// restored snapshots, under the default and non-default Decima weights.
func TestDistributionMatchesReference(t *testing.T) {
	t.Parallel()
	policies := []string{"Decima", "PCAPS", "CAP-Decima", "UniformPB"}
	for _, policy := range policies {
		for _, seed := range []int64{3, 11} {
			for _, engine := range []string{"run", "hold", "stream"} {
				for _, perJobCap := range []int{0, 3} {
					name := fmt.Sprintf("%s/seed%d/%s/cap%d", policy, seed, engine, perJobCap)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						checkPolicyDraws(t, policy, seed, engine, perJobCap)
					})
				}
			}
		}
	}
}

func checkPolicyDraws(t *testing.T, policy string, seed int64, engine string, perJobCap int) {
	var inner Probabilistic = NewDecima(seed)
	if policy == "UniformPB" {
		inner = &UniformPB{Seed: seed}
	}
	o := &drawOracle{t: t, inner: inner, seed: seed, variants: decimaVariants(),
		variates: rand.New(rand.NewSource(seed)), nextSnap: 10}
	var s sim.Scheduler = o
	switch policy {
	case "PCAPS":
		s = NewPCAPS(o, DefaultPCAPSGamma, seed)
	case "CAP-Decima":
		s = NewCAP(o, 6)
	}
	jobs := workload.Batch(workload.BatchConfig{N: 12, MeanInterarrival: 10, Mix: workload.MixBoth, Seed: seed})
	cfg := sim.Config{NumExecutors: 16, Trace: deTrace(t), MoveDelay: 1, PerJobCap: perJobCap}
	var err error
	switch engine {
	case "run":
		_, err = sim.Run(cfg, jobs, s)
	case "hold":
		cfg.HoldExecutors = true
		_, err = sim.Run(cfg, jobs, s)
	case "stream":
		_, err = sim.RunStream(cfg, &sim.SliceSource{Jobs: jobs}, s)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(o.snaps) < 2 {
		t.Fatalf("%d draws, %d snapshots; the fixture exercises too little", o.stats.draws, len(o.snaps))
	}
	for i, snap := range o.snaps {
		c, err := snap.Restore()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decimaVariants() {
			checkDraw(t, "restored", d, c, o.variates, &o.stats)
			checkDraw(t, "restored, again", d, c, o.variates, &o.stats)
		}
		if i%3 == 0 {
			c.Place(NewPCAPS(NewDecima(seed), DefaultPCAPSGamma, seed))
			checkDraw(t, "restored, after Place", NewDecima(seed), c, o.variates, &o.stats)
		}
	}
	t.Logf("%d draws checked, %d within 1e-12 of a cumulative boundary", o.stats.draws, o.stats.near)
	if o.stats.near > 0 {
		t.Errorf("%d of %d variates fell within 1e-12 of a cumulative boundary, where the samplers may round apart; none are expected at these sizes",
			o.stats.near, o.stats.draws)
	}
}
