// Package federation simulates a geographically distributed deployment:
// K member clusters, each pinned to a different power grid (and therefore
// to a different carbon-intensity trace), with a job router in front. Jobs
// arrive at the federation, a routing policy assigns each to one cluster
// at its arrival instant, and the per-cluster scheduler (FIFO, CAP,
// PCAPS, ...) takes over from there — routing composes with, and happens
// strictly before, per-cluster scheduling, mirroring how a global load
// balancer sits in front of independent regional control planes.
//
// The paper evaluates its schedulers against one grid at a time; its own
// motivation — carbon intensity varies hugely across regions and hours —
// points at cross-region placement as the next lever. This package opens
// that scenario family on top of the existing substrates: carbon.Trace
// supplies each region's signal, carbon.Forecaster the (L, U) routing
// bounds, and internal/sim runs each member cluster unchanged.
//
// Determinism rules (see DESIGN.md "Federation layer"): routing is a
// serial fold over jobs in arrival order, router state is reset at the
// start of every run, and each member cluster derives its simulation seed
// from the federation seed and the cluster's own identity — so a
// federation run is a pure function of (jobs, specs, router, seed) and
// experiment cells can fan out over workers without changing results.
package federation

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/metrics"
	"pcaps/internal/seed"
	"pcaps/internal/sim"
)

// ClusterSpec describes one member cluster of the federation.
type ClusterSpec struct {
	// Name labels the cluster in results; defaults to Grid. Distinct
	// names are recommended when several clusters share a grid.
	Name string
	// Grid is the power-grid identifier the Signals source is queried
	// with ("DE", "CAISO", ...).
	Grid string
	// Trace is the cluster's carbon-intensity signal, consumed by the
	// member simulation and by the default trace-backed Signals.
	Trace *carbon.Trace
	// Config is the member cluster's engine configuration. Trace is
	// overridden per run.
	Config sim.Config
	// NewScheduler builds the member cluster's scheduler. A fresh
	// instance is built per run, seeded with the cluster's derived seed,
	// because scheduler instances carry per-run scratch.
	NewScheduler func(seed int64) sim.Scheduler
}

// JobInfo is what routers observe about a job at routing time.
type JobInfo struct {
	Job *dag.Job
	// Arrival is the job's arrival time in experiment seconds.
	Arrival float64
	// Work is the job's total work in executor-seconds.
	Work float64
	// CriticalPath is the DAG's critical-path length in seconds, the
	// lower bound on the job's span at any parallelism.
	CriticalPath float64
}

// ClusterState is the per-cluster snapshot a router sees for one routing
// decision. Intensity and the (Low, High) bounds come from the
// federation's Signals source; RoutedJobs/RoutedWork account for
// everything the router has already sent to the cluster, the cheap load
// proxy available before the member simulations run.
type ClusterState struct {
	Index int
	Name  string
	// Executors is the cluster's effective per-job parallelism (the
	// per-job cap when set, the cluster size otherwise).
	Executors int
	// Intensity is the grid's carbon intensity at the job's arrival.
	Intensity float64
	// Low and High are the forecast bounds over [arrival, arrival+Span].
	Low, High float64
	// Span is the job's estimated wall span on this cluster in seconds:
	// max(critical path, work / effective parallelism).
	Span float64
	// RoutedJobs and RoutedWork count what this router run has already
	// assigned to the cluster.
	RoutedJobs int
	RoutedWork float64
}

// Router assigns each arriving job to a member cluster. Implementations
// may keep state across Route calls (round-robin counters, hysteresis
// anchors); Reset is invoked at the start of every federation run so one
// router instance yields identical assignments on identical inputs.
type Router interface {
	Name() string
	Reset()
	// Route returns the index of the chosen cluster in [0, len(clusters)).
	// The clusters slice is owned by the federation engine and only valid
	// for the duration of the call.
	Route(job JobInfo, clusters []ClusterState) int
}

// Federation wires clusters, a router, and a signal source together.
type Federation struct {
	Clusters []ClusterSpec
	Router   Router
	// Signals supplies routing-time intensities and forecast bounds; nil
	// selects a trace-backed source over the clusters' own traces using
	// Forecaster.
	Signals Signals
	// Forecaster shapes the default trace-backed signals; nil selects
	// the paper's oracle assumption (carbon.Oracle).
	Forecaster carbon.Forecaster
	// Seed drives the per-cluster scheduler construction
	// (domain-separated per cluster).
	Seed int64
}

// ClusterResult pairs one member cluster with its share of the run.
type ClusterResult struct {
	Name string
	// Jobs is the number of jobs routed to the cluster.
	Jobs int
	// Sim is the member simulation outcome; nil when no jobs were
	// routed here (the cluster stayed dark and emitted nothing).
	Sim *sim.Result
}

// Result summarizes one federation run.
type Result struct {
	Router string
	// Assignments maps each input job (by position) to the index of the
	// cluster it was routed to.
	Assignments []int
	// PerCluster holds each member cluster's outcome in spec order.
	PerCluster []ClusterResult
	// Summary is the federated carbon/throughput account.
	Summary metrics.FederationSummary
}

// clusterSeed derives a member cluster's scheduler seed from the
// federation seed and the cluster's identity, domain-separated through
// the same recipe the experiment engine uses for cell seeds — so adding
// or reordering sibling clusters never perturbs an unrelated member.
func clusterSeed(base int64, name string, index int) int64 {
	return seed.Derive(base, "federation/"+name, int64(index))
}

func (f *Federation) validate() error {
	if len(f.Clusters) == 0 {
		return errors.New("federation: no clusters")
	}
	if f.Router == nil {
		return errors.New("federation: no router")
	}
	seen := map[string]*carbon.Trace{}
	for i, c := range f.Clusters {
		if c.Trace == nil {
			return fmt.Errorf("federation: cluster %d (%s) has no trace", i, c.Name)
		}
		if c.NewScheduler == nil {
			return fmt.Errorf("federation: cluster %d (%s) has no scheduler factory", i, c.Name)
		}
		if c.Config.NumExecutors < 1 {
			return fmt.Errorf("federation: cluster %d (%s) has no executors", i, c.Name)
		}
		// Signals are grid-keyed, so clusters sharing a grid must share
		// one trace — otherwise the router would score one cluster with
		// another's signal.
		if prev, ok := seen[c.Grid]; ok && prev != c.Trace {
			return fmt.Errorf("federation: clusters sharing grid %q must share one trace (signals are grid-keyed)", c.Grid)
		}
		seen[c.Grid] = c.Trace
	}
	return nil
}

// effectiveParallelism is the per-job executor bound used for span
// estimates: the per-job cap when configured, the cluster size otherwise.
func effectiveParallelism(cfg sim.Config) int {
	k := cfg.NumExecutors
	if cfg.PerJobCap > 0 && cfg.PerJobCap < k {
		k = cfg.PerJobCap
	}
	return k
}

// Run routes the jobs and simulates every member cluster. Jobs are routed
// in arrival order (ties broken by input position); each member cluster
// then runs the engine over its share with a derived seed. Input jobs are
// templates shared across runs — the engine clones them — so the same
// batch can be fed to several routers for comparison.
func (f *Federation) Run(jobs []*dag.Job) (*Result, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("federation: no jobs")
	}
	names := make([]string, len(f.Clusters))
	for i, c := range f.Clusters {
		names[i] = c.Name
		if names[i] == "" {
			names[i] = c.Grid
		}
	}
	sig := f.Signals
	if sig == nil {
		traces := make(map[string]*carbon.Trace, len(f.Clusters))
		for _, c := range f.Clusters {
			traces[c.Grid] = c.Trace
		}
		sig = &TraceSignals{Traces: traces, Forecaster: f.Forecaster}
	}

	// Route in arrival order, ties broken by input position, so the
	// router observes the same sequence a live admission point would.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})

	f.Router.Reset()
	assignments := make([]int, len(jobs))
	shares := make([][]*dag.Job, len(f.Clusters))
	states := make([]ClusterState, len(f.Clusters))
	routedJobs := make([]int, len(f.Clusters))
	routedWork := make([]float64, len(f.Clusters))
	// Clusters sharing a grid see identical signals; memoize per job so
	// the ClientSignals path issues one intensity request per distinct
	// grid and one forecast request per distinct (grid, span), not one
	// of each per cluster.
	type boundsKey struct {
		grid string
		span float64
	}
	type bounds struct{ lo, hi float64 }
	intensityCache := make(map[string]float64, len(f.Clusters))
	boundsCache := make(map[boundsKey]bounds, len(f.Clusters))
	for _, ji := range order {
		j := jobs[ji]
		info := JobInfo{Job: j, Arrival: j.Arrival, Work: j.TotalWork(), CriticalPath: j.CriticalPathLength()}
		clear(intensityCache)
		clear(boundsCache)
		for ci, spec := range f.Clusters {
			eff := effectiveParallelism(spec.Config)
			span := math.Max(info.CriticalPath, info.Work/float64(eff))
			if span <= 0 {
				span = spec.Trace.Interval
			}
			intensity, ok := intensityCache[spec.Grid]
			if !ok {
				var err error
				intensity, err = sig.Intensity(spec.Grid, info.Arrival)
				if err != nil {
					return nil, fmt.Errorf("federation: intensity for %s: %w", names[ci], err)
				}
				intensityCache[spec.Grid] = intensity
			}
			bk := boundsKey{grid: spec.Grid, span: span}
			b, ok := boundsCache[bk]
			if !ok {
				lo, hi, err := sig.Bounds(spec.Grid, info.Arrival, span)
				if err != nil {
					return nil, fmt.Errorf("federation: forecast for %s: %w", names[ci], err)
				}
				b = bounds{lo: lo, hi: hi}
				boundsCache[bk] = b
			}
			states[ci] = ClusterState{
				Index:      ci,
				Name:       names[ci],
				Executors:  eff,
				Intensity:  intensity,
				Low:        b.lo,
				High:       b.hi,
				Span:       span,
				RoutedJobs: routedJobs[ci],
				RoutedWork: routedWork[ci],
			}
		}
		idx := f.Router.Route(info, states)
		if idx < 0 || idx >= len(f.Clusters) {
			return nil, fmt.Errorf("federation: router %s returned cluster %d of %d",
				f.Router.Name(), idx, len(f.Clusters))
		}
		assignments[ji] = idx
		routedJobs[idx]++
		routedWork[idx] += info.Work
		shares[idx] = append(shares[idx], j)
	}

	// Simulate every member cluster over its share.
	var acct metrics.FederationAccountant
	per := make([]ClusterResult, len(f.Clusters))
	for ci, spec := range f.Clusters {
		per[ci] = ClusterResult{Name: names[ci], Jobs: len(shares[ci])}
		if len(shares[ci]) == 0 {
			acct.Add(metrics.ClusterShare{Name: names[ci]})
			continue
		}
		cfg := spec.Config
		cfg.Trace = spec.Trace
		res, err := sim.Run(cfg, shares[ci], spec.NewScheduler(clusterSeed(f.Seed, names[ci], ci)))
		if err != nil {
			return nil, fmt.Errorf("federation: cluster %s: %w", names[ci], err)
		}
		per[ci].Sim = res
		acct.Add(metrics.ClusterShare{
			Name:        names[ci],
			Jobs:        len(shares[ci]),
			CarbonGrams: res.CarbonGrams,
			Work:        res.TotalWork,
			Makespan:    res.ECT,
			JCTs:        res.JCTs,
		})
	}
	return &Result{
		Router:      f.Router.Name(),
		Assignments: assignments,
		PerCluster:  per,
		Summary:     acct.Summary(),
	}, nil
}
