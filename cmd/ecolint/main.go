// Command ecolint runs the EcoCapsule domain-aware static-analysis suite
// (internal/analysis) over the given package patterns.
//
// Usage:
//
//	go run ./cmd/ecolint ./...
//	go run ./cmd/ecolint -list
//	go run ./cmd/ecolint -only dimcheck,floatcmp ./internal/physics
//	go run ./cmd/ecolint -include-tests -json ./...
//
// Every run is one in-memory pass: packages are type-checked and
// analyzed in dependency order, each dependency level fanned out over
// the cores by the conc pool. Nothing is written to disk.
//
// Findings print as `file:line: analyzer: message`, or as a JSON array
// with -json. A finding is suppressed by an inline directive on the same
// line or the line above:
//
//	//ecolint:ignore <analyzer> <reason>
//
// The reason is mandatory; directives without one are reported themselves,
// and so are directives for an analyzer that ran and found nothing on
// their line or the next.
//
// Exit codes are distinct so CI can tell "the tree is dirty" from "the
// driver could not even look at the tree":
//
//	0  clean
//	1  findings reported
//	2  usage error (bad flags, unknown analyzer)
//	3  driver or load error (go list failed, a package did not parse or
//	   type-check)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ecocapsule/internal/analysis"
)

// Exit codes. Findings and driver failures must not alias: a CI gate
// that treats any non-zero as "findings" would otherwise report a green
// "0 findings" summary for a tree it never managed to load.
const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
	exitDriver   = 3
)

// jsonDiag is the stable wire shape of one finding under -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	onlyFlag := flag.String("only", "", "comma-separated subset of analyzers to run")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	testsFlag := flag.Bool("include-tests", false, "also analyze _test.go files (in-package and external)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ecolint [-list] [-only a,b] [-json] [-include-tests] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *listFlag {
		writeList(os.Stdout, analyzers)
		return
	}
	if *onlyFlag != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*onlyFlag, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "ecolint: unknown analyzer %q (try -list)\n", name)
			os.Exit(exitUsage)
		}
		analyzers = selected
	}

	opts := analysis.Options{Analyzers: analyzers, IncludeTests: *testsFlag}
	diags, stats, err := analysis.Run(opts, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecolint: %v\n", err)
		os.Exit(exitDriver)
	}

	if *jsonFlag {
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "ecolint: encoding findings: %v\n", err)
			os.Exit(exitDriver)
		}
	} else {
		analysis.FormatText(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ecolint: %d finding(s) in %d package(s)\n", len(diags), stats.Targets)
		os.Exit(exitFindings)
	}
}

// writeList prints the -list roster: one analyzer per line, name first.
func writeList(w io.Writer, analyzers []*analysis.Analyzer) {
	for _, a := range analyzers {
		fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
	}
}
