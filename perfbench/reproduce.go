package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"pcaps/internal/experiments"
	"pcaps/internal/result"
)

// reproduceParallel is the worker budget of each experiments.Run.
const reproduceParallel = 2

// reproduceIDs lists every registered artifact except hyperscale, whose
// full matrix runs for about an hour; the stream workloads cover its
// code.
func reproduceIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if id != "hyperscale" {
			ids = append(ids, id)
		}
	}
	return ids
}

func artifactMetrics() []metricDef {
	var defs []metricDef
	for _, id := range reproduceIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	return defs
}

// fig20's live latency measurements are the one part of any artifact
// that is not a function of the seed. maskTimings collapses each number
// to '#' and each run of spaces to one, since the columns are padded to
// fixed widths: a latency that gains a digit (10 µs and over, as on a
// loaded host) shortens the padding in front of it.
var (
	numberRun = regexp.MustCompile(`[0-9][0-9.]*`)
	spaceRun  = regexp.MustCompile(` +`)
)

func maskTimings(s string) string {
	return spaceRun.ReplaceAllString(numberRun.ReplaceAllString(s, "#"), " ")
}

func rendered(rep *experiments.Report) string {
	text := rep.Render()
	if rep.ID == "fig20" {
		text = maskTimings(text)
	}
	return text
}

// reproduceSetupRuns is how many times the reproduce set-up is timed.
// The set-up is a process's first experiments.Run: it synthesizes the
// six paper-length grid traces into the experiments package's
// process-wide cache, which every later Run reads and which cannot be
// emptied. So the first timing is this process's own set-up, and the
// others run in fresh child processes of this program (--setup-only).
const reproduceSetupRuns = 3

// reproduceSetup times the set-up of a reproduction.
func reproduceSetup(opt experiments.Options) (*experiments.Report, float64, error) {
	start := time.Now()
	rep, err := experiments.Run("table1", opt)
	return rep, time.Since(start).Seconds(), err
}

// printReproduceSetup times the set-up for seed once and prints its
// seconds: the child-process side of childSetup.
func printReproduceSetup(seed int64, w io.Writer) error {
	_, d, err := reproduceSetup(experiments.Options{Seed: seed, Parallel: reproduceParallel})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, d)
	return err
}

// childSetup runs this program with --setup-only in a child process,
// waits for it to end, and returns the set-up seconds it printed.
func childSetup(seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", "reproduce", "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runReproduce regenerates every artifact in full mode (the paper's
// trial counts), one experiments.Run per artifact, at least twice, so
// that each artifact's text is compared across two runs of one seed.
func runReproduce(rc runConfig) (*outcome, error) {
	opt := experiments.Options{Seed: rc.seed, Parallel: reproduceParallel}
	ids := reproduceIDs()
	want := map[string]string{}

	rep, first, err := reproduceSetup(opt)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	want[rep.ID] = rendered(rep)
	setups := []float64{first}
	for len(setups) < reproduceSetupRuns {
		d, err := childSetup(rc.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	setup := median(setups)

	o := &outcome{layers: map[string]float64{}}
	var walls []float64
	perArtifact := map[string][]float64{}
	var co2, normJCT float64
	heap := startHeapSampler()
	base := readRuntime()
	n, err := repeat(rc.seconds, 2, func() error {
		heap.startPass()
		defer heap.endPass()
		passStart := time.Now()
		for _, id := range ids {
			t := time.Now()
			rep, err := experiments.Run(id, opt)
			d := time.Since(t).Seconds()
			o.attempted++
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", id, err)
				o.failed++
				continue
			}
			perArtifact[id] = append(perArtifact[id], d)
			text := rendered(rep)
			if w, ok := want[id]; !ok {
				want[id] = text
			} else if text != w {
				fmt.Fprintf(os.Stderr, "perfbench: %s: rendered text differs between runs of seed %d\n", id, rc.seed)
				o.failed++
			}
			if id == "table3" {
				co2, normJCT, err = table3PCAPS(rep.Artifact)
				if err != nil {
					return err
				}
			}
		}
		walls = append(walls, time.Since(passStart).Seconds())
		return nil
	})
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}

	// The latency samples are whole reproductions, in ms: what a reader
	// running every artifact waits for. Single artifacts are too uneven
	// to be one: the median artifact is one of the 0.1 to 0.5 s runs,
	// which vary by a fifth from pass to pass on one seed, and across
	// five seeds it spread twice as far as the pass time. Each
	// artifact's own time is the per-layer experiments.<id>_s.
	var lat []float64
	for _, w := range walls {
		lat = append(lat, w*1000)
	}
	o.finish(setup, walls, latencies{lat}, peak)
	o.layers["experiments.pcaps_co2_red_pct"] = co2
	o.layers["experiments.pcaps_norm_jct"] = normJCT
	if rc.traced {
		for id, ds := range perArtifact {
			o.layers["experiments."+id+"_s"] = median(ds)
		}
		base.perPass(n, o.layers)
	}
	var sim strings.Builder
	for _, id := range ids {
		sim.WriteString(want[id])
	}
	o.sim = sim.String()
	o.derived = []derivedFigure{
		{"pcaps_co2_red_pct", co2, "%"},
		{"pcaps_norm_jct", normJCT, "ratio"},
		{"failed_frac", float64(o.failed) / float64(o.attempted), "ratio"},
		{"passes", float64(n), "count"},
	}
	return o, nil
}

// table3PCAPS reads PCAPS's CO2 reduction (percent) and average JCT
// normalized to FIFO from table3's summary table.
func table3PCAPS(a *result.Artifact) (co2, jct float64, err error) {
	for _, b := range a.Blocks {
		t, ok := b.(*result.Table)
		if !ok || t.Name != "summary" {
			continue
		}
		col := map[string]int{}
		for i, c := range t.Columns {
			col[c.Name] = i
		}
		for _, row := range t.Rows {
			if row[col["scheduler"]].S == "PCAPS" {
				return row[col["co2_reduction_pct"]].F, row[col["avg_jct"]].F, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("table3: no PCAPS row in the summary table")
}
