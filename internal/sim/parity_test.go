package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcaps/internal/carbon"
	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

// swingTrace is a carbon signal with a pronounced swing, so the
// carbon-aware policies defer and release work during the run.
func swingTrace(t *testing.T) *carbon.Trace {
	t.Helper()
	vals := make([]float64, 600)
	for i := range vals {
		vals[i] = 300 + 250*math.Sin(float64(i)/10)
	}
	tr, err := carbon.New("swing", 60, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// shuffledBatch draws a batch, gives some jobs equal arrival times
// (including a tie at t=0), and hands them to the engine out of arrival
// order.
func shuffledBatch(seed int64) []*dag.Job {
	jobs := workload.Batch(workload.BatchConfig{N: 16, MeanInterarrival: 40, Mix: workload.MixBoth, Seed: seed})
	jobs[1].Arrival = jobs[0].Arrival
	for i := 4; i+1 < len(jobs); i += 4 {
		jobs[i+1].Arrival = jobs[i].Arrival
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// sortedBatch draws a batch in arrival order.
func sortedBatch(seed int64) []*dag.Job {
	return workload.Batch(workload.BatchConfig{N: 14, MeanInterarrival: 45, Mix: workload.MixTPCH, Seed: seed})
}

// resultDigest is the sha256 of a result's canonical JSON with the
// Stream block cleared.
func resultDigest(t *testing.T, r *sim.Result) string {
	t.Helper()
	cp := *r
	cp.Stream = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunFingerprints pins sim.Run's output, bit for bit, on seeded
// cases covering batch ordering, hold mode (PCAPS on the paper's 60 s
// idle timeout, the configuration of every deferring-scheduler table,
// and FIFO), per-job usage, the per-job result switch and the per-job
// cap. Any difference in a digest is a change in Run's semantics.
func TestRunFingerprints(t *testing.T) {
	t.Parallel()
	pcaps := func(seed int64) sim.Scheduler { return sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed) }
	cases := []struct {
		name  string
		batch func(seed int64) []*dag.Job
		cfg   func(c *sim.Config)
		sched func(seed int64) sim.Scheduler
		want  map[int64]string
	}{
		{"shuffled/pcaps", shuffledBatch,
			func(c *sim.Config) { c.MoveDelay = 2 }, pcaps,
			map[int64]string{
				1: "bd9e76cf2c059e69cb17583a70564a5a64b14eeec7755a417fab75e869a37594",
				7: "a6630f2303cdfec95bd74da73068cf6c9cf0b529cd9a017debcaa5edca371f78",
			}},
		{"shuffled/cap-fifo", shuffledBatch,
			func(c *sim.Config) {},
			func(int64) sim.Scheduler { return sched.NewCAP(&sched.FIFO{}, 20) },
			map[int64]string{
				1: "80fecfc69444b6f72355b404bb9920c9d43b9109533cdad136251ecebd8c4188",
				7: "bafdda27129e489f8071ad38c3c73e5495a42ed916cf1669aa81a701a8b0a443",
			}},
		{"hold/pcaps", sortedBatch,
			func(c *sim.Config) { c.HoldExecutors, c.IdleTimeout = true, 60 }, pcaps,
			map[int64]string{
				1: "20b70da2e485549f63dee706121c2da786fa325dbd8fd040c184832dd1d93b1a",
				7: "0dc161ea822a61bdda83ae15aa885de5837b27fad6615a42aab46e35b73c7cfa",
			}},
		{"hold/fixed", shuffledBatch,
			func(c *sim.Config) { c.HoldExecutors, c.IdleTimeout = true, 30 },
			func(int64) sim.Scheduler { return &sched.FIFO{} },
			map[int64]string{
				1: "af40f1da069bb224cc3d61cc98843ea995794b9dfe5393bf6e36f8df922909f1",
				7: "ab792ce4cc3c328ccc9fdb16581dec6ae7fc38370a49311237167297ba785e44",
			}},
		{"job-usage", shuffledBatch,
			func(c *sim.Config) { c.TrackJobUsage, c.MoveDelay = true, 1 },
			func(int64) sim.Scheduler { return &sched.WeightedFair{} },
			map[int64]string{
				1: "f14bf60cd1ea6eda01a6fa02d7404296b062f256b33ec5e030260e9c4f193eca",
				7: "37dd7dc9f77268a46d390b8bb56d54eb00a9f7f31c6c588f9ee03c1b2915e4b4",
			}},
		{"per-job-off", shuffledBatch,
			func(c *sim.Config) { c.PerJobResults = sim.PerJobOff }, pcaps,
			map[int64]string{
				1: "c2d01ece2e4ecfbcc00846b1a1dfd68a12096fcce1e88a75b1924a6ae090e5a7",
				7: "ad0b6141460e272f049d7947f35f467bd281c7bbdcce72ffd45e5c551975a9ee",
			}},
		{"per-job-cap", sortedBatch,
			func(c *sim.Config) { c.PerJobCap = 3 },
			func(seed int64) sim.Scheduler { return sched.NewDecima(seed) },
			map[int64]string{
				1: "40ae71374cfd975caeef37d13ea0d61d4f3cb9c8e96aa38e10ff71636cc70f15",
				7: "b37e2c93ccef8f54ec219157f6888d00dcf5898771782c65979007ccec42b9a1",
			}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := sim.Config{NumExecutors: 12, Trace: swingTrace(t)}
				tc.cfg(&cfg)
				res, err := sim.Run(cfg, tc.batch(seed), tc.sched(seed))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultDigest(t, res), tc.want[seed]; got != want {
					t.Errorf("result digest %s, want %s", got, want)
				}
			})
		}
	}
}

// TestDeterministicRuns checks that a run is a pure function of its
// inputs and the scheduler's seed: the engine draws no randomness of its
// own, so equal Decima seeds give equal results and a different seed
// gives a different schedule.
func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	run := func(seed int64) string {
		cfg := sim.Config{NumExecutors: 12, Trace: swingTrace(t)}
		res, err := sim.Run(cfg, shuffledBatch(1), sched.NewDecima(seed))
		if err != nil {
			t.Fatal(err)
		}
		return resultDigest(t, res)
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
	if run(43) == a {
		t.Fatal("scheduler seed had no effect")
	}
}

// TestRunObserverCalls pins how often Config.Observer fires: once per
// processed event, after that event's scheduling pass.
func TestRunObserverCalls(t *testing.T) {
	t.Parallel()
	for seed, want := range map[int64]int{1: 3780, 7: 2227} {
		calls := 0
		cfg := sim.Config{NumExecutors: 12, Trace: swingTrace(t),
			Observer: func(*sim.Cluster) { calls++ }}
		res, err := sim.Run(cfg, shuffledBatch(seed), sched.NewPCAPS(sched.NewDecima(seed), 0.5, seed))
		if err != nil {
			t.Fatal(err)
		}
		if calls != want || calls != res.Events {
			t.Errorf("seed %d: %d observer calls over %d events, want %d", seed, calls, res.Events, want)
		}
	}
}
