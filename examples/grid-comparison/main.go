// grid-comparison: how grid characteristics shape the carbon-time
// trade-off (the Fig 10 / Fig 14 story). Runs moderate PCAPS and CAP on
// all six grids and shows that variable grids (ON, CAISO, DE) unlock far
// larger savings than flat ones (ZA).
//
//	go run ./examples/grid-comparison
package main

import (
	"fmt"
	"log"

	"pcaps/internal/carbon"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
	"pcaps/internal/workload"
)

func main() {
	traces := carbon.SynthesizeAll(3000, 60, 42)
	jobs := workload.Batch(workload.BatchConfig{N: 30, MeanInterarrival: 30, Mix: workload.MixTPCH, Seed: 5})

	fmt.Printf("%-6s %10s %14s %14s %12s %12s\n",
		"grid", "coeff.var", "PCAPS ΔCO2", "CAP ΔCO2", "PCAPS ECT", "CAP ECT")
	for _, name := range carbon.SortedNames(traces) {
		tr := traces[name]
		cfg := sim.Config{
			NumExecutors: 100, Trace: tr, MoveDelay: 1,
			HoldExecutors: true, IdleTimeout: 60,
		}
		run := func(s sim.Scheduler) *sim.Result {
			res, err := sim.Run(cfg, jobs, s)
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		base := run(sched.NewDecima(1))
		pc := run(sched.NewPCAPS(sched.NewDecima(1), 0.5, 1))
		cp := run(sched.NewCAP(sched.NewDecima(1), 20))
		pct := func(r *sim.Result) float64 {
			return 100 * (base.CarbonGrams - r.CarbonGrams) / base.CarbonGrams
		}
		fmt.Printf("%-6s %10.3f %13.1f%% %13.1f%% %12.3f %12.3f\n",
			name, tr.Stats().CoeffVar, pct(pc), pct(cp),
			pc.ECT/base.ECT, cp.ECT/base.ECT)
	}
	fmt.Println("\nAs in the paper: greater renewable variability → greater savings;")
	fmt.Println("coal-flat ZA offers almost nothing to shift toward.")
}
