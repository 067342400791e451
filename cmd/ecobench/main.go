// Command ecobench regenerates every table and figure of the paper's
// evaluation from the simulation stack and prints them as aligned-text
// reports with PASS/FAIL shape checks.
//
// Usage:
//
//	ecobench               # run every experiment
//	ecobench -run fig12    # run one experiment by id
//	ecobench -list         # list experiment ids
//	ecobench -out DIR      # also write one .txt report per experiment
//	ecobench -json         # hot-path micro-benchmarks and the 1k city-fleet
//	                       # survey as JSON (BENCH.json), measured at
//	                       # GOMAXPROCS=1 and at NumCPU
//	ecobench -json -baseline BENCH.json
//	                       # same, and fail if any entry's ns/op regressed
//	                       # >20% against the committed baseline run at the
//	                       # same GOMAXPROCS
//	ecobench -json -full   # also the 10k (with the flat-registry comparator
//	                       # and the >=3x build-time sharding gate) and 100k
//	                       # (two 50k building segments) fleet tiers at
//	                       # GOMAXPROCS=1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ecocapsule/internal/expt"
)

func main() {
	var (
		runID    = flag.String("run", "", "run a single experiment id (e.g. fig12)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		outDir   = flag.String("out", "", "directory to write per-experiment .txt reports")
		csvDir   = flag.String("csv", "", "directory to write per-experiment .csv data (tables + series)")
		jsonOut  = flag.Bool("json", false, "run the hot-path micro-benchmarks and the 1k fleet survey and print BENCH JSON")
		baseline = flag.String("baseline", "", "with -json: committed BENCH json to gate regressions against")
		full     = flag.Bool("full", false, "with -json: also the 10k (sharded and flat) and 100k fleet tiers at GOMAXPROCS=1 (minutes)")
	)
	flag.Parse()

	if *jsonOut {
		os.Exit(benchMain(*baseline, *full))
	}

	runners := expt.All()
	if *list {
		for _, r := range runners {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}
	if *runID != "" {
		r := expt.ByID(*runID)
		if r == nil {
			fmt.Fprintf(os.Stderr, "ecobench: unknown experiment %q (try -list)\n", *runID)
			os.Exit(2)
		}
		runners = []expt.Runner{*r}
	}
	for _, dir := range []string{*outDir, *csvDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ecobench: %v\n", err)
			os.Exit(1)
		}
	}

	failed := 0
	for _, r := range runners {
		res := r.Run()
		report := res.Render()
		fmt.Println(report)
		if *outDir != "" {
			path := filepath.Join(*outDir, res.ID+".txt")
			if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ecobench: write %s: %v\n", path, err)
				os.Exit(1)
			}
		}
		if *csvDir != "" {
			if data, err := res.CSV(); err == nil {
				path := filepath.Join(*csvDir, res.ID+".csv")
				if werr := os.WriteFile(path, []byte(data), 0o644); werr != nil {
					fmt.Fprintf(os.Stderr, "ecobench: write %s: %v\n", path, werr)
					os.Exit(1)
				}
			}
			if data, err := res.SeriesCSV(); err == nil {
				path := filepath.Join(*csvDir, res.ID+"_series.csv")
				if werr := os.WriteFile(path, []byte(data), 0o644); werr != nil {
					fmt.Fprintf(os.Stderr, "ecobench: write %s: %v\n", path, werr)
					os.Exit(1)
				}
			}
		}
		if !res.Passed() {
			failed++
			fmt.Fprintf(os.Stderr, "ecobench: %s failed checks: %v\n", res.ID, res.FailedChecks())
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ecobench: %d experiment(s) failed their shape checks\n", failed)
		os.Exit(1)
	}
	fmt.Printf("ecobench: %d experiment(s) reproduced, all shape checks passed\n", len(runners))
}
