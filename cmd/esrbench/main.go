// Command esrbench regenerates every table and experiment from the
// reproduction's experiment index (DESIGN.md §3):
//
//	esrbench -all          # run everything at quick scale
//	esrbench -all -full    # full-scale workloads
//	esrbench -table 1      # just the paper's Table 1 (also 2, 3)
//	esrbench -exp E5       # one experiment by ID
//	esrbench -list         # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"esr/internal/sim"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every table and experiment")
		full   = flag.Bool("full", false, "full-scale workloads (default is quick)")
		table  = flag.Int("table", 0, "print paper table N (1, 2 or 3)")
		exp    = flag.String("exp", "", "run one experiment by ID (T1–T3, E1–E14)")
		list   = flag.Bool("list", false, "list available experiments")
		asJSON = flag.Bool("json", false, "emit results as JSON instead of text tables")
	)
	flag.Parse()
	jsonOut = *asJSON

	switch {
	case *list:
		for _, ex := range sim.Experiments() {
			fmt.Printf("%-4s %s\n     claim: %s\n", ex.ID, ex.Title, ex.Claim)
		}
	case *table != 0:
		id := fmt.Sprintf("T%d", *table)
		if err := runOne(id, !*full); err != nil {
			fatal(err)
		}
	case *exp != "":
		if err := runOne(*exp, !*full); err != nil {
			fatal(err)
		}
	case *all:
		for _, ex := range sim.Experiments() {
			if err := run(ex, !*full); err != nil {
				fatal(err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(id string, quick bool) error {
	ex, ok := sim.Find(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	return run(ex, quick)
}

var jsonOut bool

func run(ex sim.Experiment, quick bool) error {
	start := time.Now()
	tab, err := ex.Run(quick)
	if err != nil {
		return fmt.Errorf("%s: %w", ex.ID, err)
	}
	if jsonOut {
		b, err := tab.JSON()
		if err != nil {
			return fmt.Errorf("%s: encode: %w", ex.ID, err)
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Printf("=== %s: %s\n", ex.ID, ex.Title)
	fmt.Printf("    claim under test: %s\n\n", ex.Claim)
	tab.Render(os.Stdout)
	fmt.Printf("\n    (%s in %v)\n\n", ex.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esrbench:", err)
	os.Exit(1)
}
