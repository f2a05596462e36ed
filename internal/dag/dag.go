// Package dag models precedence-constrained data processing jobs.
//
// A Job is a directed acyclic graph whose nodes are Stages. Following the
// Spark model used by the paper (§2.2), each stage encapsulates a set of
// tasks that are parallelizable over partitions of input data, and an edge
// u → v means stage v cannot start until stage u has completed. The package
// provides construction, validation, topological utilities, and the
// critical-path computations the schedulers rely on.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Stage is one node of a job DAG: a set of identical, independent tasks
// that may run in parallel once every parent stage has finished.
type Stage struct {
	// ID is the stage's index within its job. Stage IDs are dense:
	// a job with n stages uses IDs 0..n-1.
	ID int
	// Name is an optional human-readable label ("map", "shuffle-3", ...).
	Name string
	// NumTasks is the number of tasks in the stage. Must be ≥ 1.
	NumTasks int
	// TaskDuration is the mean duration of one task in seconds of
	// experiment time on one executor. Must be > 0.
	TaskDuration float64
	// Parents and Children are stage IDs of direct predecessors and
	// successors. They are kept sorted and deduplicated by Validate.
	Parents  []int
	Children []int
}

// Work returns the stage's total work in executor-seconds.
func (s *Stage) Work() float64 { return float64(s.NumTasks) * s.TaskDuration }

// Job is a directed acyclic graph of stages plus arrival metadata.
type Job struct {
	// ID uniquely identifies the job within an experiment.
	ID int
	// Name is an optional label ("tpch-q17-10g", "alibaba-774", ...).
	Name string
	// Stages holds the job's stages indexed by Stage.ID.
	Stages []*Stage
	// Arrival is the job's submission time in seconds of experiment time.
	Arrival float64
	// Class optionally names the workload class the job was drawn from
	// (heterogeneous batches, internal/arrivals); "" for homogeneous
	// batches.
	Class string
}

// Errors returned by Validate.
var (
	ErrEmptyJob      = errors.New("dag: job has no stages")
	ErrCyclic        = errors.New("dag: job graph contains a cycle")
	ErrBadStageID    = errors.New("dag: stage IDs must be dense 0..n-1")
	ErrBadEdge       = errors.New("dag: edge references unknown stage")
	ErrBadTasks      = errors.New("dag: stage must have at least one task")
	ErrBadDuration   = errors.New("dag: task duration must be positive")
	ErrAsymmetricDAG = errors.New("dag: parent/child lists are inconsistent")
)

// Validate checks structural invariants: dense IDs, positive task counts
// and durations, edges referencing valid stages, parent/child symmetry,
// and acyclicity. It also normalizes (sorts, dedups) edge lists in place.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return ErrEmptyJob
	}
	n := len(j.Stages)
	for i, s := range j.Stages {
		if s == nil || s.ID != i {
			return fmt.Errorf("%w: stage %d", ErrBadStageID, i)
		}
		if s.NumTasks < 1 {
			return fmt.Errorf("%w: stage %d", ErrBadTasks, i)
		}
		if s.TaskDuration <= 0 {
			return fmt.Errorf("%w: stage %d", ErrBadDuration, i)
		}
		s.Parents = normalize(s.Parents)
		s.Children = normalize(s.Children)
		for _, p := range s.Parents {
			if p < 0 || p >= n {
				return fmt.Errorf("%w: stage %d parent %d", ErrBadEdge, i, p)
			}
		}
		for _, c := range s.Children {
			if c < 0 || c >= n {
				return fmt.Errorf("%w: stage %d child %d", ErrBadEdge, i, c)
			}
		}
	}
	for _, s := range j.Stages {
		for _, p := range s.Parents {
			if !contains(j.Stages[p].Children, s.ID) {
				return fmt.Errorf("%w: %d→%d", ErrAsymmetricDAG, p, s.ID)
			}
		}
		for _, c := range s.Children {
			if !contains(j.Stages[c].Parents, s.ID) {
				return fmt.Errorf("%w: %d→%d", ErrAsymmetricDAG, s.ID, c)
			}
		}
	}
	if _, err := j.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func normalize(ids []int) []int {
	if len(ids) == 0 {
		return ids
	}
	sort.Ints(ids)
	out := ids[:1]
	for _, v := range ids[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func contains(ids []int, v int) bool {
	for _, x := range ids {
		if x == v {
			return true
		}
	}
	return false
}

// TopoOrder returns the stage IDs in a topological order (Kahn's
// algorithm, smallest-ID-first for determinism) or ErrCyclic.
func (j *Job) TopoOrder() ([]int, error) {
	n := len(j.Stages)
	indeg := make([]int, n)
	for _, s := range j.Stages {
		indeg[s.ID] = len(s.Parents)
	}
	// ready is kept sorted ascending; n is small (tens of stages) so a
	// linear-insertion "priority queue" is simpler and fast enough.
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, c := range j.Stages[v].Children {
			indeg[c]--
			if indeg[c] == 0 {
				ready = insertSorted(ready, c)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// Roots returns the IDs of stages with no parents.
func (j *Job) Roots() []int {
	var out []int
	for _, s := range j.Stages {
		if len(s.Parents) == 0 {
			out = append(out, s.ID)
		}
	}
	return out
}

// Leaves returns the IDs of stages with no children.
func (j *Job) Leaves() []int {
	var out []int
	for _, s := range j.Stages {
		if len(s.Children) == 0 {
			out = append(out, s.ID)
		}
	}
	return out
}

// TotalWork returns the job's total work in executor-seconds, i.e. the
// optimal single-machine makespan OPT₁(J) used by the paper's analysis.
func (j *Job) TotalWork() float64 {
	var w float64
	for _, s := range j.Stages {
		w += s.Work()
	}
	return w
}

// CriticalPathDown returns, for every stage, the length in seconds of the
// longest chain of serial work starting at that stage and ending at a leaf,
// inclusive of the stage itself. A stage's serial contribution is
// TaskDuration (tasks are parallelizable, so a stage contributes one task
// "wave" under unlimited executors). This is the downstream bottleneck
// pressure PCAPS-style schedulers prioritize.
func (j *Job) CriticalPathDown() []float64 {
	order, err := j.TopoOrder()
	if err != nil {
		return nil
	}
	cp := make([]float64, len(j.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		s := j.Stages[order[i]]
		var best float64
		for _, c := range s.Children {
			if cp[c] > best {
				best = cp[c]
			}
		}
		cp[s.ID] = s.TaskDuration + best
	}
	return cp
}

// CriticalPathWorkDown is like CriticalPathDown but measures total
// *work* (NumTasks × TaskDuration) along the heaviest downstream chain,
// a proxy for how much cluster time is blocked behind each stage.
func (j *Job) CriticalPathWorkDown() []float64 {
	order, err := j.TopoOrder()
	if err != nil {
		return nil
	}
	cp := make([]float64, len(j.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		s := j.Stages[order[i]]
		var best float64
		for _, c := range s.Children {
			if cp[c] > best {
				best = cp[c]
			}
		}
		cp[s.ID] = s.Work() + best
	}
	return cp
}

// AppendCriticalPathWorkDown appends the CriticalPathWorkDown vector to
// dst and returns the extended slice, allocating only when dst lacks the
// capacity — so a caller that recycles dst across jobs computes it
// without allocating. It recurses over children with memoization instead
// of building a topological order; every value is the same stage work
// plus the same exact maximum over children, so the result is
// bit-identical to CriticalPathWorkDown. A cyclic job appends nothing.
func (j *Job) AppendCriticalPathWorkDown(dst []float64) []float64 {
	base, n := len(dst), len(j.Stages)
	dst = slices.Grow(dst, n)[:base+n]
	cp := dst[base:]
	for i := range cp {
		cp[i] = cpUnvisited
	}
	for i := range cp {
		if !j.fillWorkDown(cp, i) {
			return dst[:base]
		}
	}
	return dst
}

// Markers for AppendCriticalPathWorkDown's recursion; finished entries
// are non-negative.
const (
	cpUnvisited = -1
	cpVisiting  = -2
)

// fillWorkDown sets cp[id] (and every descendant's entry) to its
// downstream critical-path work, reporting false on a cycle.
func (j *Job) fillWorkDown(cp []float64, id int) bool {
	switch cp[id] {
	case cpVisiting:
		return false
	case cpUnvisited:
	default:
		return true
	}
	cp[id] = cpVisiting
	s := j.Stages[id]
	var best float64
	for _, c := range s.Children {
		if !j.fillWorkDown(cp, c) {
			return false
		}
		if cp[c] > best {
			best = cp[c]
		}
	}
	cp[id] = s.Work() + best
	return true
}

// CriticalPathLength returns the length in seconds of the job's longest
// chain (the makespan lower bound under unlimited executors).
func (j *Job) CriticalPathLength() float64 {
	var best float64
	for _, v := range j.CriticalPathDown() {
		if v > best {
			best = v
		}
	}
	return best
}

// Descendants returns the set of stages reachable from stage id
// (excluding id itself), as a boolean slice indexed by stage ID.
func (j *Job) Descendants(id int) []bool {
	seen := make([]bool, len(j.Stages))
	stack := append([]int(nil), j.Stages[id].Children...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, j.Stages[v].Children...)
	}
	return seen
}

// NumDescendants returns the number of stages reachable from stage id.
func (j *Job) NumDescendants(id int) int {
	n := 0
	for _, b := range j.Descendants(id) {
		if b {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the job. Runtime layers mutate scheduling
// state but never the DAG itself; Clone exists so that generators can hand
// the same template to multiple experiments safely.
func (j *Job) Clone() *Job {
	c := &Job{ID: j.ID, Name: j.Name, Arrival: j.Arrival, Class: j.Class, Stages: make([]*Stage, len(j.Stages))}
	for i, s := range j.Stages {
		ns := *s
		ns.Parents = append([]int(nil), s.Parents...)
		ns.Children = append([]int(nil), s.Children...)
		c.Stages[i] = &ns
	}
	return c
}

// Builder incrementally assembles a valid Job. It exists so generators and
// tests can declare DAG shape without hand-maintaining symmetric edge lists.
type Builder struct {
	job *Job
}

// NewBuilder returns a Builder for a job with the given ID and name.
func NewBuilder(id int, name string) *Builder {
	return &Builder{job: &Job{ID: id, Name: name}}
}

// Stage appends a stage and returns its ID.
func (b *Builder) Stage(name string, numTasks int, taskDuration float64) int {
	id := len(b.job.Stages)
	b.job.Stages = append(b.job.Stages, &Stage{
		ID: id, Name: name, NumTasks: numTasks, TaskDuration: taskDuration,
	})
	return id
}

// Edge adds a precedence edge parent → child.
func (b *Builder) Edge(parent, child int) *Builder {
	b.job.Stages[parent].Children = append(b.job.Stages[parent].Children, child)
	b.job.Stages[child].Parents = append(b.job.Stages[child].Parents, parent)
	return b
}

// Chain adds edges forming a linear chain through the given stage IDs.
func (b *Builder) Chain(ids ...int) *Builder {
	for i := 1; i < len(ids); i++ {
		b.Edge(ids[i-1], ids[i])
	}
	return b
}

// Build validates and returns the job.
func (b *Builder) Build() (*Job, error) {
	if err := b.job.Validate(); err != nil {
		return nil, err
	}
	return b.job, nil
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Job {
	j, err := b.Build()
	if err != nil {
		panic(err)
	}
	return j
}
