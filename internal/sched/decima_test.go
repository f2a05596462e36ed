package sched

import (
	"math"
	"testing"

	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// referenceDistribution is Decima.Distribution as it was before its
// inputs were memoized on the run records: remaining work from a fresh
// stage loop per call, the critical-path vector from a fresh
// dag.Job.CriticalPathWorkDown per call, the grant cap recomputed per ref and a
// fresh math.Exp per stage. It is the oracle the memoized form must match
// bit for bit.
func referenceDistribution(d *Decima, c *sim.Cluster) ([]sim.StageRef, []float64) {
	remainingWork := func(j *sim.JobRun) float64 {
		var w float64
		for _, s := range j.Stages {
			w += float64(s.Stage.NumTasks-s.Completed) * s.Stage.TaskDuration
		}
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

// decimaVariants are the weightings the oracle test checks: the tuned
// defaults, the zero-weight fallback, and non-default weights and
// temperatures on both sides of 1.
func decimaVariants() []*Decima {
	return []*Decima{
		NewDecima(1),
		{},
		{CPWeight: 1.5, SRPTWeight: 7, Temperature: 0.3},
		{CPWeight: 5, SRPTWeight: 0.5, Temperature: 2.5},
		{CPWeight: -2, SRPTWeight: 3, Temperature: -1},
	}
}

// checkDistribution compares d's distribution on c with the reference:
// the same refs in the same order and bitwise-identical probabilities.
func checkDistribution(t *testing.T, where string, d *Decima, c *sim.Cluster) int {
	t.Helper()
	refs, probs := d.Distribution(c)
	wantRefs, wantProbs := referenceDistribution(d, c)
	if len(refs) != len(wantRefs) || len(probs) != len(wantProbs) {
		t.Fatalf("%s: %d refs / %d probs, reference %d / %d", where, len(refs), len(probs), len(wantRefs), len(wantProbs))
	}
	for i := range refs {
		if refs[i] != wantRefs[i] {
			t.Fatalf("%s: ref %d is job %d stage %d, reference job %d stage %d", where, i,
				refs[i].Job.Job.ID, refs[i].Stage.Stage.ID, wantRefs[i].Job.Job.ID, wantRefs[i].Stage.Stage.ID)
		}
		if math.Float64bits(probs[i]) != math.Float64bits(wantProbs[i]) {
			t.Fatalf("%s: prob %d is %v, reference %v", where, i, probs[i], wantProbs[i])
		}
	}
	return len(refs)
}

// oracleProbe checks every Decima variant against the reference on the
// live cluster at each Pick of a PCAPS run, then delegates to the PCAPS
// policy. The variants persist across Picks, so their memos meet the
// state changes between events. It also keeps a snapshot every 40th
// Pick.
type oracleProbe struct {
	t        *testing.T
	inner    sim.Scheduler
	variants []*Decima
	picks    int
	checked  int
	snaps    []*sim.Snapshot
}

func (p *oracleProbe) Name() string { return "oracle" }
func (p *oracleProbe) Pick(c *sim.Cluster) sim.Decision {
	p.picks++
	for _, d := range p.variants {
		p.checked += checkDistribution(p.t, "live", d, c)
	}
	if p.picks%40 == 0 {
		p.snaps = append(p.snaps, c.Snapshot())
	}
	return p.inner.Pick(c)
}

// TestDistributionMatchesReference is the oracle for the memoized
// Distribution: across a PCAPS stream and on snapshots restored from it,
// successive calls under default and non-default weights must return the
// reference's refs and bitwise-identical probabilities.
func TestDistributionMatchesReference(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{2, 9} {
		jobs := workload.Batch(workload.BatchConfig{N: 16, MeanInterarrival: 10, Mix: workload.MixBoth, Seed: seed})
		probe := &oracleProbe{t: t, inner: NewPCAPS(NewDecima(seed), DefaultPCAPSGamma, seed), variants: decimaVariants()}
		cfg := sim.Config{NumExecutors: 24, Trace: deTrace(t), Seed: seed, MoveDelay: 1}
		res, err := sim.RunStream(cfg, &sim.SliceSource{Jobs: jobs}, probe)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deferrals == 0 || probe.checked == 0 || len(probe.snaps) == 0 {
			t.Fatalf("seed %d: %d deferrals, %d refs checked, %d snapshots; the fixture exercises too little",
				seed, res.Deferrals, probe.checked, len(probe.snaps))
		}
		for i, snap := range probe.snaps {
			c, err := snap.Restore()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decimaVariants() {
				checkDistribution(t, "restored", d, c)
				checkDistribution(t, "restored, again", d, c)
			}
			if i%3 == 0 {
				c.Place(NewPCAPS(NewDecima(seed), DefaultPCAPSGamma, seed))
				checkDistribution(t, "restored, after Place", NewDecima(seed), c)
			}
		}
	}
}
