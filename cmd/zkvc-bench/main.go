// Command zkvc-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	zkvc-bench -table 1            # capability matrix
//	zkvc-bench -fig 3              # matmul proving-time comparison
//	zkvc-bench -fig 6              # matmul sweep over embedding dims
//	zkvc-bench -table 2            # CRPC/PSQ ablation
//	zkvc-bench -table 3            # ViT end-to-end (3 datasets × 4 mixers)
//	zkvc-bench -table 4            # BERT/GLUE end-to-end
//	zkvc-bench -all                # everything
//	zkvc-bench -fig 6 -full        # no extrapolation (slow: paper shapes exactly)
//	zkvc-bench -fig 3 -seed 2      # other synthesized matrices (default seed 1)
//
// Default mode keeps every run to minutes by extrapolating the heaviest
// baseline × dimension pairs from exact anchor runs (rows are marked
// "(est)"); -full reruns everything exactly. With no -table, -fig or
// -all it prints the flags and exits 2. What the tables reproduce (the
// shape of the comparison, not the paper's absolute times) is in the
// internal/bench package comment; wall-clock claims about this
// repository are made with benchmark/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"zkvc/internal/bench"
)

func main() {
	var (
		table = flag.Int("table", 0, "regenerate Table N (1-4)")
		fig   = flag.Int("fig", 0, "regenerate Figure N (3 or 6)")
		all   = flag.Bool("all", false, "regenerate every table and figure")
		full  = flag.Bool("full", false, "no extrapolation: run the paper's exact shapes (slow)")
		seed  = flag.Int64("seed", 1, "deterministic seed for synthesized workloads")
	)
	flag.Parse()

	cfg := bench.RunConfig{Full: *full, Seed: *seed}
	mode := "default (anchored extrapolation for heavy rows)"
	if *full {
		mode = "full (exact paper shapes)"
	}
	fmt.Printf("zkvc-bench: %s; GOMAXPROCS=%d\n\n", mode, runtime.GOMAXPROCS(0))

	ran := false
	run := func(name string, f func() error) {
		ran = true
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "zkvc-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *all || *table == 1 {
		run("table 1", func() error {
			bench.PrintTableI(os.Stdout)
			return nil
		})
	}
	if *all || *fig == 3 {
		run("figure 3", func() error {
			rows, err := bench.Fig3(cfg)
			if err != nil {
				return err
			}
			bench.PrintMatMulResults(os.Stdout,
				"Figure 3: matmul [49,64]x[64,128] proving-time comparison", rows)
			return nil
		})
	}
	if *all || *fig == 6 {
		run("figure 6", func() error {
			rows, err := bench.Fig6(cfg)
			if err != nil {
				return err
			}
			bench.PrintMatMulResults(os.Stdout,
				"Figure 6: matmul [49,d/2]x[d/2,d] sweep (prove/verify/proof size/online)", rows)
			return nil
		})
	}
	if *all || *table == 2 {
		run("table 2", func() error {
			rows, err := bench.TableII(cfg)
			if err != nil {
				return err
			}
			bench.PrintTableII(os.Stdout, rows, cfg.Full)
			return nil
		})
	}
	if *all || *table == 3 {
		run("table 3", func() error {
			rows, err := bench.TableIII(cfg)
			if err != nil {
				return err
			}
			bench.PrintE2E(os.Stdout, "Table III: ViT token mixers", rows, "Top1(%)")
			return nil
		})
	}
	if *all || *table == 4 {
		run("table 4", func() error {
			rows, err := bench.TableIV(cfg)
			if err != nil {
				return err
			}
			bench.PrintE2E(os.Stdout,
				"Table IV: BERT token mixers", rows, "MNLI/QNLI/SST-2/MRPC(%)")
			return nil
		})
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
