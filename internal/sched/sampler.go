package sched

import (
	"math"

	"pcaps/internal/sim"
)

// softmax is the incremental form of the masked softmax the Def. 4.1
// schedulers sample from (DESIGN.md §2.2). Stage v of job j scores
//
//	s_v = (cpW·min(cp_v/R_j, 1) − srptW·R_j/maxR) / temp
//
// where R_j is the job's remaining work, cp_v the stage's downstream
// critical-path work and maxR the largest R_j over the jobs with a stage
// in the distribution, and it enters with weight exp(s_v − shift). Only
// runnable stages of jobs below the per-job cap enter; with mask set,
// only those also below their planned limit.
//
// Each active job, in ActiveJobs order, owns a leaf holding the sum and
// the largest score of its stages' weights and its remaining work; a
// binary tree over the leaves holds the sum, the largest score and the
// largest remaining work of its subtree. A leaf is recomputed only when
// its job's stamp moves. Every leaf is recomputed when an input shared
// by all scores moves: the grant share ⌈K/active⌉, maxR, or the shift.
// A change of the active set alone rebuilds the inner nodes from the
// leaves in O(jobs).
type softmax struct {
	cpW, srptW, temp float64
	mask             bool

	// c is the cluster the state below describes; a Pick on another
	// cluster starts afresh.
	c *sim.Cluster
	// share and maxRemain are the grant share and maxR every leaf's
	// weights were computed with; shift is the weights' exponent shift.
	share     int
	maxRemain float64
	shift     float64
	// leaves parallels c.ActiveJobs(); spare holds remap's copy of the
	// previous leaves. nodes[1:width] are the inner nodes of the tree, in
	// heap order; position width+i is leaves[i].
	leaves, spare []leaf
	nodes         []node
	width         int
	// dirty holds the leaves recomputed during one sync.
	dirty []int
}

// node is a tree position's aggregate: the sum of its stages' weights,
// their largest score (−∞ when it has none) and the largest remaining
// work among its jobs with a stage in the distribution (0 when none).
type node struct {
	sum, maxScore, maxRemain float64
}

// emptyNode is the aggregate of no stage.
var emptyNode = node{maxScore: math.Inf(-1)}

// leaf is one active job's aggregate and the stamp it was computed at;
// stamp −1 marks it stale.
type leaf struct {
	job   *sim.JobRun
	stamp int
	node
}

// combine aggregates two sibling subtrees; sums add left to right.
//
//pcaps:hotpath
func combine(a, b node) node {
	return node{sum: a.sum + b.sum, maxScore: max(a.maxScore, b.maxScore), maxRemain: max(a.maxRemain, b.maxRemain)}
}

// at returns tree position p's aggregate.
//
//pcaps:hotpath
func (s *softmax) at(p int) node {
	if p < s.width {
		return s.nodes[p]
	}
	if i := p - s.width; i < len(s.leaves) {
		return s.leaves[i].node
	}
	return emptyNode
}

// configure sets the score weights; a change starts the sampler afresh.
//
//pcaps:hotpath
func (s *softmax) configure(cpW, srptW, temp float64, mask bool) {
	if s.cpW != cpW || s.srptW != srptW || s.temp != temp || s.mask != mask {
		s.cpW, s.srptW, s.temp, s.mask = cpW, srptW, temp, mask
		s.c = nil
	}
}

// sync brings the tree up to date with c: O(jobs) stamp comparisons,
// plus the stages of the jobs that changed, or of every job when a
// shared input moved.
//
//pcaps:hotpath
func (s *softmax) sync(c *sim.Cluster) {
	active := c.ActiveJobs()
	share := grantShare(c)
	all := c != s.c || share != s.share
	if c != s.c {
		s.c = c
		s.leaves, s.width = s.leaves[:0], 1
		// The scores' upper bound: no weight exceeds 1.
		s.shift = (max(s.cpW, 0) + max(-s.srptW, 0)) / s.temp
	}
	s.share = share
	structural := len(active) != len(s.leaves)
	s.dirty = s.dirty[:0]
	if !structural {
		// One pass finds both a changed active set and the stale leaves.
		for i, j := range active {
			l := &s.leaves[i]
			if l.job != j {
				structural = true
				break
			}
			if all || l.stamp != j.Stamp() {
				s.dirty = append(s.dirty, i)
			}
		}
	}
	if structural {
		s.remap(active)
		s.dirty = s.dirty[:0]
		for i := range s.leaves {
			if l := &s.leaves[i]; all || l.stamp != l.job.Stamp() {
				s.dirty = append(s.dirty, i)
			}
		}
	}
	if all {
		// Every leaf is filled below: settle maxR first, so each is
		// filled once.
		s.maxRemain = 0
		for i := range s.leaves {
			s.maxRemain = max(s.maxRemain, s.admittedRemain(s.leaves[i].job))
		}
	}
	for _, i := range s.dirty {
		s.fill(&s.leaves[i])
	}
	if structural || all {
		s.rebuild()
	} else {
		for _, i := range s.dirty {
			s.update(i)
		}
	}
	if root := s.at(1); root.maxRemain != s.maxRemain {
		s.maxRemain = root.maxRemain
		s.refill()
	}
	// Keep the largest weight, exp(maxScore − shift), well inside the
	// normal range, so no weight that matters underflows and the sum
	// cannot overflow; shift to the largest score when it strays.
	if top := s.at(1).maxScore; !math.IsInf(top, -1) && math.Abs(top-s.shift) > 600 {
		s.shift = top
		s.refill()
	}
}

// remap re-aligns the leaves with a changed active set. The active list
// keeps its order across insertions and removals, so a forward search
// from the last match finds every job that stayed; a leaf whose job did
// not stay, or whose record was recycled, fails the stamp check later.
//
//pcaps:hotpath
func (s *softmax) remap(active []*sim.JobRun) {
	old := append(s.spare[:0], s.leaves...)
	s.spare = old
	s.leaves = s.leaves[:0]
	k := 0
	for _, j := range active {
		l := leaf{job: j, stamp: -1}
		for m := k; m < len(old); m++ {
			if old[m].job == j {
				l, k = old[m], m+1
				break
			}
		}
		s.leaves = append(s.leaves, l)
	}
	width := 1
	for width < len(active) {
		width *= 2
	}
	s.width = width
	if cap(s.nodes) < width {
		//hot:alloc the tree grows to the active-job high-water mark, then is reused
		s.nodes = make([]node, width)
	}
	s.nodes = s.nodes[:width]
}

// rebuild recomputes every inner node from the leaves.
//
//pcaps:hotpath
func (s *softmax) rebuild() {
	for p := s.width - 1; p >= 1; p-- {
		s.nodes[p] = combine(s.at(2*p), s.at(2*p+1))
	}
}

// update recomputes the inner nodes above leaf i.
//
//pcaps:hotpath
func (s *softmax) update(i int) {
	for p := (s.width + i) / 2; p >= 1; p /= 2 {
		s.nodes[p] = combine(s.at(2*p), s.at(2*p+1))
	}
}

// refill recomputes every leaf against the current shared inputs.
//
//pcaps:hotpath
func (s *softmax) refill() {
	for i := range s.leaves {
		s.fill(&s.leaves[i])
	}
	s.rebuild()
}

// jobCap returns the grant cap of a job with remaining work remain, or
// −1 when the per-job cap keeps the whole job out of the distribution.
//
//pcaps:hotpath
func (s *softmax) jobCap(c *sim.Cluster, j *sim.JobRun, remain float64) int {
	if cap := c.PerJobCap(); cap > 0 && j.Executors >= cap {
		return -1
	}
	return workCap(s.share, remain)
}

// admits reports whether a runnable stage of a job with grant cap jobCap
// enters the distribution.
//
//pcaps:hotpath
func (s *softmax) admits(st *sim.StageRun, jobCap int) bool {
	return jobCap >= 0 && (!s.mask || st.Running < plannedLimit(st, jobCap))
}

// admittedRemain is a job's part of maxR: its remaining work if any of
// its stages enters the distribution, else 0.
//
//pcaps:hotpath
func (s *softmax) admittedRemain(j *sim.JobRun) float64 {
	remain := j.RemainingWork()
	jobCap := s.jobCap(s.c, j, remain)
	for _, st := range j.RunnableStages() {
		if s.admits(st, jobCap) {
			return remain
		}
	}
	return 0
}

// score is s_v for a stage of a job with remaining work remain and
// critical-path vector cp, against the current maxR.
//
//pcaps:hotpath
func (s *softmax) score(st *sim.StageRun, cp []float64, remain float64) float64 {
	cpNorm := 0.0
	if remain > 0 {
		cpNorm = cp[st.Stage.ID] / remain
		if cpNorm > 1 {
			cpNorm = 1
		}
	}
	srptNorm := 0.0
	if s.maxRemain > 0 {
		srptNorm = remain / s.maxRemain
	}
	return (s.cpW*cpNorm - s.srptW*srptNorm) / s.temp
}

// fill recomputes one leaf from its job and stamps it.
//
//pcaps:hotpath
func (s *softmax) fill(l *leaf) {
	j := l.job
	l.stamp = j.Stamp()
	l.node = emptyNode
	remain := j.RemainingWork()
	jobCap := s.jobCap(s.c, j, remain)
	var cp []float64
	for _, st := range j.RunnableStages() {
		if !s.admits(st, jobCap) {
			continue
		}
		if cp == nil {
			cp = j.CriticalPathWork()
			l.maxRemain = remain
		}
		sc := s.score(st, cp, remain)
		l.sum += math.Exp(sc - s.shift)
		l.maxScore = max(l.maxScore, sc)
	}
}

// draw samples a stage with probability proportional to its weight and
// returns it with its relative importance exp(s_v − max s), calling
// u.Float64 once only when some stage is in the distribution.
//
//pcaps:hotpath
func (s *softmax) draw(c *sim.Cluster, u Uniform) (sim.StageRef, float64, bool) {
	s.sync(c)
	root := s.at(1)
	if math.IsInf(root.maxScore, -1) {
		return sim.StageRef{}, 0, false
	}
	y := u.Float64() * root.sum
	p := 1
	for p < s.width {
		left, right := s.at(2*p), s.at(2*p+1)
		// A rounding overshoot past the last non-empty subtree stays in
		// the left one and falls back to its last stage below.
		if y < left.sum || right.sum == 0 {
			p = 2 * p
		} else {
			y -= left.sum
			p = 2*p + 1
		}
	}
	j := s.leaves[p-s.width].job
	remain := j.RemainingWork()
	jobCap := s.jobCap(c, j, remain)
	cp := j.CriticalPathWork()
	var pick *sim.StageRun
	var pickScore, cum float64
	for _, st := range j.RunnableStages() {
		if !s.admits(st, jobCap) {
			continue
		}
		sc := s.score(st, cp, remain)
		pick, pickScore = st, sc
		cum += math.Exp(sc - s.shift)
		if y < cum {
			break
		}
	}
	return sim.StageRef{Job: j, Stage: pick}, math.Exp(pickScore - root.maxScore), true
}
