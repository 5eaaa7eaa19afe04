// Command hccbench reproduces the paper's tables and figures on the
// simulator. Run with no arguments to list figures; pass figure ids (or
// "all") to generate them; -csv emits CSV instead of aligned text.
//
// -cpuprofile, -memprofile and -trace capture pprof/trace output around
// the figure generation. The repository's performance benchmark is
// hccperf (bash hccperf/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"

	"hccsim/internal/bench"
	"hccsim/internal/figures"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	var prof bench.ProfileConfig
	flag.StringVar(&prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&prof.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&prof.Trace, "trace", "", "write a runtime execution trace to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hccbench [-csv] <figure-id>... | all\n\nfigures:\n")
		for _, id := range figures.IDs() {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", id, figures.Describe(id))
		}
	}
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	code := runFigures(flag.Args(), *csv)
	if err := stopProf(); err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// runFigures generates and prints the requested figures.
func runFigures(args []string, csv bool) int {
	if len(args) == 0 {
		flag.Usage()
		return 2
	}
	if len(args) == 1 && args[0] == "all" {
		args = figures.IDs()
	}
	for _, id := range args {
		table, err := figures.Generate(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if csv {
			if err := table.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			continue
		}
		fmt.Println(table.String())
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
