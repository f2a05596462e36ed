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
// cases covering batch ordering, hold mode (with and without the legacy
// wake-up cadence), jitter with failure injection, per-job usage, the
// per-job result switch and the per-job cap. The digests were recorded
// from the engine before Run moved onto RunStream's loop and must not
// change: any difference is a change in Run's semantics.
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
				1: "5466590993b958f16edae7a2615337ee177e8018e05827423c2c03f0a258018c",
				7: "b8dac065e6e656dbbc715041e0886df89ccf3f40dd342ba803854d72ba59b31c",
			}},
		{"shuffled/cap-fifo", shuffledBatch,
			func(c *sim.Config) {},
			func(int64) sim.Scheduler { return sched.NewCAP(&sched.FIFO{}, 20) },
			map[int64]string{
				1: "17d01e942b732da42ec8d1bc26506bccbcfc46344554124bc8efce4f3c1fe58e",
				7: "120a80a3fae8a0a2065e9683df6a190847cd5e4c076f10e5939c344e0819167c",
			}},
		{"hold/legacy", sortedBatch,
			func(c *sim.Config) { c.HoldExecutors, c.IdleTimeout, c.LegacyHoldWakeups = true, 60, true }, pcaps,
			map[int64]string{
				1: "e7e8e49d2803a05ca0583481e3de35fcece853c7dc9046efef393ae8b81260c5",
				7: "82b82e9aa6040e23a2ed2cf645571180b0add8179f7a7b68bf21bdd5c9736c5c",
			}},
		{"hold/fixed", shuffledBatch,
			func(c *sim.Config) { c.HoldExecutors, c.IdleTimeout = true, 30 },
			func(int64) sim.Scheduler { return &sched.FIFO{} },
			map[int64]string{
				1: "eaf7f5884e4ec64aa0dbea313843542d422f9fefab5a7a4bb596576b41e6d89a",
				7: "8158069ecbe1feb949e4980dd7b00b3bc4a89a918b55dea5e2d7cb6cd78784f4",
			}},
		{"jitter+failure", shuffledBatch,
			func(c *sim.Config) { c.DurationJitter, c.FailureRate = 0.3, 0.15 },
			func(seed int64) sim.Scheduler { return sched.NewDecima(seed) },
			map[int64]string{
				1: "e047ffac723bbd7c37b482228b3006326b6ef9b6204958807c1bb4580fa27e94",
				7: "45e3597b58b45d6019ee8a8de940ff91f6e3ca3c87034b0a7f79f2c21b542fee",
			}},
		{"job-usage", shuffledBatch,
			func(c *sim.Config) { c.TrackJobUsage, c.MoveDelay = true, 1 },
			func(int64) sim.Scheduler { return &sched.WeightedFair{} },
			map[int64]string{
				1: "484ae558ce2d9b36be582c04c4238bf7ac9a995df193d56e9e27de235550cbda",
				7: "f28a996fcdcf4079d713eba86dd38f24d32621dc8dc102f4eca32db33796fed6",
			}},
		{"per-job-off", shuffledBatch,
			func(c *sim.Config) { c.PerJobResults = sim.PerJobOff }, pcaps,
			map[int64]string{
				1: "b0f1c1555a2344f4f523336793ff4621172de6ffea1f6aed7f320bb3774db2bc",
				7: "f32e395e5f443566608df2c7ec8315cce895c27d224e7b73ddeb711a3c16e742",
			}},
		{"per-job-cap", sortedBatch,
			func(c *sim.Config) { c.PerJobCap = 3 },
			func(seed int64) sim.Scheduler { return sched.NewDecima(seed) },
			map[int64]string{
				1: "cda70e59c8afd39b087b2e9a5e41113cf40470c417fc74eda3134facc5abe425",
				7: "90696b8f9d3f468237b435ff14699fa945651765fe3998c1c6ef66f173cc811a",
			}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := sim.Config{NumExecutors: 12, Trace: swingTrace(t), Seed: seed}
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

// TestRunObserverCalls pins how often Config.Observer fires: once per
// processed event, after that event's scheduling pass.
func TestRunObserverCalls(t *testing.T) {
	t.Parallel()
	for seed, want := range map[int64]int{1: 3780, 7: 2227} {
		calls := 0
		cfg := sim.Config{NumExecutors: 12, Trace: swingTrace(t), Seed: seed,
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
