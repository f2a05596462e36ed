package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"pcaps/internal/arrivals"
	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
	"pcaps/internal/placement"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// The serve-placement workload drives an in-process carbonapi server
// with the placement backend from serveClients closed-loop keep-alive
// clients. Each client sends serveRequests requests per pass, in a seeded
// order: 90% single-policy Place calls on small snapshots, cycling
// through servePolicies and smallSnapshots snapshots, and the rest
// four-policy PlaceBatch calls on a large one. The two sizes load the HTTP layer differently: small requests
// measure per-request overhead, large ones JSON decoding, snapshot
// restore and Pick on big state.
const (
	serveClients  = 2
	serveRequests = 100
	serveLarge    = 10 // large requests per client per pass
	serveSeeds    = 4  // distinct request seeds

	smallExecutors = 20
	smallJobs      = 30
	smallActive    = 8 // active jobs in a small snapshot, at least
	// smallSnapshots is the number of small snapshots. Their JSON is 9
	// to 12 KB across seeds, and a small request's time follows it: with
	// one snapshot a run's median round trip followed the seed's
	// snapshot, spreading 18% across five seeds.
	smallSnapshots = 4
	largeExecutors = 1000
	largeJobs      = 300
	largeActive    = 150 // active jobs in the large snapshot, at least
	largeRPS       = 4.0
)

var servePolicies = []sched.Spec{{Kind: "fifo"}, {Kind: "decima"}, {Kind: "cap"}, {Kind: "pcaps"}}

// serveInputs are the snapshots, the request schedule and the expected
// decisions, all generated from the seed.
type serveInputs struct {
	small []*sim.Snapshot
	large *sim.Snapshot
	seeds []int64
	// wantSmall[s][i][p] is policy p's decision on small snapshot s with
	// request seed i; wantLarge[i] the batch's on the large snapshot.
	wantSmall [][][]sim.Placement
	wantLarge [][]sim.Placement
	// schedule[c] is client c's request sequence for one pass.
	schedule [][]request
}

type request struct {
	large  bool
	policy int // index into servePolicies, for small requests
	snap   int // index into small, for small requests
	seed   int // index into seeds
}

func newServeInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	var err error
	for i := 0; i < smallSnapshots; i++ {
		snap, err := captureSnapshot(seed*smallSnapshots+int64(i), smallExecutors, smallJobs,
			arrivals.Poisson{MeanSec: 10}, workload.MixTPCH, &sched.WeightedFair{},
			func(c *sim.Cluster, _ int) bool {
				return c.BusyCount() > 0 && len(c.ActiveJobs()) >= smallActive
			})
		if err != nil {
			return nil, fmt.Errorf("small snapshot: %w", err)
		}
		in.small = append(in.small, snap)
	}
	constant, err := arrivals.New(arrivals.Spec{Kind: arrivals.KindConstant, RPS: largeRPS})
	if err != nil {
		return nil, err
	}
	in.large, err = captureSnapshot(seed+1, largeExecutors, largeJobs,
		constant, workload.MixTPCH, &sched.FIFO{},
		func(c *sim.Cluster, _ int) bool {
			return c.BusyCount() > 0 && len(c.ActiveJobs()) >= largeActive
		})
	if err != nil {
		return nil, fmt.Errorf("large snapshot: %w", err)
	}

	factories := make([]sched.Factory, len(servePolicies))
	for i, spec := range servePolicies {
		if factories[i], err = sched.Default().New(spec); err != nil {
			return nil, err
		}
	}
	smallClusters := make([]*sim.Cluster, len(in.small))
	for i, snap := range in.small {
		if smallClusters[i], err = snap.Restore(); err != nil {
			return nil, err
		}
	}
	in.wantSmall = make([][][]sim.Placement, len(in.small))
	largeCluster, err := in.large.Restore()
	if err != nil {
		return nil, err
	}
	for i := 0; i < serveSeeds; i++ {
		s := seed*serveSeeds + int64(i)
		in.seeds = append(in.seeds, s)
		large := make([]sim.Placement, len(factories))
		for p, f := range factories {
			large[p] = largeCluster.Place(f(s))
		}
		for k, c := range smallClusters {
			small := make([]sim.Placement, len(factories))
			for p, f := range factories {
				small[p] = c.Place(f(s))
			}
			in.wantSmall[k] = append(in.wantSmall[k], small)
		}
		in.wantLarge = append(in.wantLarge, large)
	}

	r := rand.New(rand.NewSource(seed))
	for c := 0; c < serveClients; c++ {
		reqs := make([]request, serveRequests)
		for k := range reqs {
			reqs[k] = request{large: k < serveLarge, seed: r.Intn(serveSeeds)}
		}
		r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		small := 0
		for k := range reqs {
			if !reqs[k].large {
				reqs[k].policy = small % len(servePolicies)
				reqs[k].snap = small / len(servePolicies) % smallSnapshots
				small++
			}
		}
		in.schedule = append(in.schedule, reqs)
	}
	return in, nil
}

// captureSnapshot simulates a generated batch and snapshots the cluster
// after the first event at which take holds, through Config.Observer.
func captureSnapshot(seed int64, execs, jobs int, proc arrivals.Process, mix workload.Mix,
	s sim.Scheduler, take func(*sim.Cluster, int) bool) (*sim.Snapshot, error) {
	batch, err := workload.Generate(workload.GenConfig{N: jobs, Arrivals: proc, Mix: mix, Seed: seed})
	if err != nil {
		return nil, err
	}
	grid, err := carbon.GridByName("CAISO")
	if err != nil {
		return nil, err
	}
	var snap *sim.Snapshot
	events := 0
	cfg := sim.Config{
		NumExecutors: execs,
		Trace:        carbon.Synthesize(grid, 48, 60, seed),
		Seed:         seed,
		Observer: func(c *sim.Cluster) {
			events++
			if snap == nil && take(c, events) {
				snap = c.Snapshot()
			}
		},
	}
	if _, err := sim.Run(cfg, batch, s); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("the run never reached the capture condition")
	}
	return snap, nil
}

// sizeStats accumulates client-side round trips of one request size.
type sizeStats struct {
	calls int64
	rtt   time.Duration
}

func runServe(rc runConfig) (*outcome, error) {
	var in *serveInputs
	var srv *httptest.Server
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	var backend *timedPlacements
	setup, err := timeSetup(func() (err error) {
		if srv != nil {
			srv.Close()
		}
		if in, err = newServeInputs(rc.seed); err != nil {
			return err
		}
		var p carbonapi.Placements = &placement.Service{}
		if rc.traced {
			backend = &timedPlacements{inner: p}
			p = backend
		}
		srv = httptest.NewServer(carbonapi.NewServer(nil, carbonapi.WithPlacements(p)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	defer transport.CloseIdleConnections()
	clients := make([]*carbonapi.Client, serveClients)
	for c := range clients {
		clients[c] = carbonapi.NewClient(srv.URL)
		clients[c].HTTPClient = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	}

	o := &outcome{layers: map[string]float64{}}
	var walls []float64
	var lat latencies
	var small, large sizeStats
	var mu sync.Mutex // guards o, passLat, small and large across clients
	ctx := context.Background()
	heap := startHeapSampler()
	base := readRuntime()
	n, err := repeat(rc.seconds, 2, func() error {
		heap.startPass()
		defer heap.endPass()
		start := time.Now()
		var passLat []float64
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, req := range in.schedule[c] {
					ok, d := in.send(ctx, clients[c], req)
					mu.Lock()
					o.attempted++
					if !ok {
						o.failed++
					}
					passLat = append(passLat, ms(d))
					st := &small
					if req.large {
						st = &large
					}
					st.calls++
					st.rtt += d
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		walls = append(walls, time.Since(start).Seconds())
		lat = append(lat, passLat)
		return nil
	})
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}

	o.finish(setup, walls, lat, peak)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	o.derived = []derivedFigure{
		{"req_per_s", float64(o.attempted) / total, "req/s"},
		{"failed_frac", float64(o.failed) / float64(o.attempted), "ratio"},
		{"passes", float64(n), "count"},
	}
	if rc.traced {
		for _, sz := range []struct {
			name   string
			client sizeStats
			server *placeSpans
		}{{"small", small, &backend.small}, {"large", large, &backend.large}} {
			calls := float64(sz.server.calls.Load())
			place := float64(sz.server.placeNs.Load()) / 1e3 / calls
			restore := float64(sz.server.restoreNs.Load()) / 1e3 / calls
			rtt := float64(sz.client.rtt.Nanoseconds()) / 1e3 / float64(sz.client.calls)
			o.layers["placement."+sz.name+".place_us"] = place
			o.layers["sim."+sz.name+".restore_us"] = restore
			o.layers["carbonapi."+sz.name+".self_us"] = rtt - place - restore
		}
		base.perPass(n, o.layers)
	}
	return o, nil
}

// send makes one request and reports whether it succeeded with the
// expected decisions, and its round-trip time.
func (in *serveInputs) send(ctx context.Context, c *carbonapi.Client, req request) (bool, time.Duration) {
	seed := in.seeds[req.seed]
	start := time.Now()
	if req.large {
		got, err := c.PlaceBatch(ctx, servePolicies, seed, in.large)
		d := time.Since(start)
		return err == nil && reflect.DeepEqual(got, in.wantLarge[req.seed]), d
	}
	got, err := c.Place(ctx, servePolicies[req.policy], seed, in.small[req.snap])
	d := time.Since(start)
	return err == nil && reflect.DeepEqual(*got, in.wantSmall[req.snap][req.seed][req.policy]), d
}
