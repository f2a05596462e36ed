package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"pcaps/internal/carbonapi"
	"pcaps/internal/placement"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
)

// TestTracedStreamMatchesUntraced checks that the scheduler and source
// decorators are transparent: a traced pass simulates exactly what an
// untraced pass does, so the traced run measures the same program.
func TestTracedStreamMatchesUntraced(t *testing.T) {
	for name, newSched := range map[string]func(int64) sim.Scheduler{
		"fifo":  func(int64) sim.Scheduler { return &sched.FIFO{} },
		"pcaps": newPCAPS,
	} {
		t.Run(name, func(t *testing.T) {
			in, err := newStreamInputs(300, 3, newSched)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := in.pass(false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := in.pass(true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.sim != traced.sim {
				t.Fatalf("traced result differs:\nuntraced %s\ntraced   %s", plain.sim, traced.sim)
			}
			if traced.sched.pick.calls == 0 || traced.src.next.calls != 301 {
				t.Fatalf("decorators saw %d picks and %d Next calls, want some and 301",
					traced.sched.pick.calls, traced.src.next.calls)
			}
		})
	}
}

// TestTracedPlacementsMatchUntraced checks that the placement decorator
// returns the backend's decisions unchanged, and that they equal the
// in-process decisions the serve workload checks responses against.
func TestTracedPlacementsMatchUntraced(t *testing.T) {
	in, err := newServeInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	plain := &placement.Service{}
	traced := &timedPlacements{inner: &placement.Service{}}
	ctx := context.Background()
	for i, seed := range in.seeds {
		for s, snap := range in.small {
			for p := range servePolicies {
				req := &carbonapi.PlacementRequest{Policy: &servePolicies[p], Seed: seed, Snapshot: snap}
				want, err := plain.Place(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := traced.Place(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if expect := in.wantSmall[s][i][p]; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(want[0], expect) {
					t.Fatalf("seed %d snapshot %d policy %s: traced %+v, untraced %+v, expected %+v", seed, s, servePolicies[p].Kind, got, want, expect)
				}
			}
		}
		req := &carbonapi.PlacementRequest{Policies: servePolicies, Seed: seed, Snapshot: in.large}
		want, err := plain.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := traced.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(want, in.wantLarge[i]) {
			t.Fatalf("seed %d batch: traced %+v, untraced %+v, expected %+v", seed, got, want, in.wantLarge[i])
		}
	}
	if n := traced.small.calls.Load() + traced.large.calls.Load(); n != int64(len(in.seeds)*(smallSnapshots*len(servePolicies)+1)) {
		t.Fatalf("decorator counted %d calls", n)
	}
	if len(in.large.Jobs) < largeActive {
		t.Fatalf("large snapshot holds %d jobs, want at least %d", len(in.large.Jobs), largeActive)
	}
}

// TestServeChecksResponses runs the serve workload briefly, traced, and
// expects every request to come back with the expected decisions.
func TestServeChecksResponses(t *testing.T) {
	o, err := runServe(runConfig{seed: 2, seconds: 0.01, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * serveClients * serveRequests; o.attempted != want || o.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d, 0", o.attempted, o.failed, want)
	}
	if o.layers["placement.large.place_us"] <= 0 || o.layers["carbonapi.small.self_us"] <= 0 {
		t.Fatalf("per-layer placement figures missing: %v", o.layers)
	}
}

// TestSeedReachesInputs checks that two seeds simulate different
// streams and that one seed repeated simulates the same one.
func TestSeedReachesInputs(t *testing.T) {
	carbonKg := func(seed int64) (float64, string) {
		t.Helper()
		in, err := newStreamInputs(2000, seed, func(int64) sim.Scheduler { return &sched.FIFO{} })
		if err != nil {
			t.Fatal(err)
		}
		p, err := in.pass(false)
		if err != nil {
			t.Fatal(err)
		}
		return p.res.CarbonGrams / 1000, p.sim
	}
	a, aSim := carbonKg(1)
	again, againSim := carbonKg(1)
	b, _ := carbonKg(2)
	if a != again || aSim != againSim {
		t.Fatalf("seed 1 repeated: carbon %v then %v", a, again)
	}
	if a == b {
		t.Fatalf("seeds 1 and 2 both give carbon_kg %v", a)
	}
}

// TestMaskTimingsIgnoresColumnWidth checks that two fig20 tables whose
// latencies differ, one of them wide enough to shorten its column's
// padding, mask to the same text, and that a missing column still shows.
func TestMaskTimingsIgnoresColumnWidth(t *testing.T) {
	fast := "jobs         FIFO        PCAPS\n75           0.01         0.49\n"
	slow := "jobs         FIFO        PCAPS\n75           0.01        12.81\n"
	if maskTimings(fast) != maskTimings(slow) {
		t.Fatalf("masked tables differ:\n%q\n%q", maskTimings(fast), maskTimings(slow))
	}
	other := "jobs         FIFO        PCAPS\n75           0.01\n"
	if maskTimings(fast) == maskTimings(other) {
		t.Fatal("a table with a missing column masks to the same text")
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	for _, set := range []struct {
		name     string
		declared []def
		program  []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var want []def
		for _, d := range set.program {
			want = append(want, def{d.name, d.unit})
		}
		if !reflect.DeepEqual(set.declared, want) {
			t.Errorf("%s: BENCHMARK.json %v, program %v", set.name, set.declared, want)
		}
	}
}

// TestRejectsBadArguments checks that bad arguments fail the run before
// any result line is printed.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-placement", "--seconds", "0"},
		{"--workload", "serve-placement", "--trace", "2"},
		{"--workload", "serve-placement", "--setup-only"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("%v: err %v, output %q", args, err, out.String())
		}
	}
}
