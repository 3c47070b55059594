// Command mnnbench regenerates the tables and figures of the paper's
// evaluation section. Run one experiment:
//
//	mnnbench -exp table1
//
// or everything:
//
//	mnnbench -exp all
//
// Host-measured experiments (Tables 1–3, 7, ablations) time this
// repository's kernels on the local machine; device-labelled experiments
// (Figures 7–9, Tables 5, 6, 8) use the Equation 5 simulator with the
// paper's Appendix C device constants — see DESIGN.md for the substitution
// rationale. Speed claims about this repository itself come from the
// committed harness in benchmark/, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mnn/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(bench.Experiments, ", "))
	quick := flag.Bool("quick", false, "reduce repetitions and sizes for a fast pass")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e)
		}
		return
	}
	opt := bench.Options{Quick: *quick, Out: os.Stdout}
	run := func(name string) {
		if err := bench.Run(name, opt); err != nil {
			fmt.Fprintf(os.Stderr, "mnnbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, e := range bench.Experiments {
			run(e)
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(e))
		}
	}
}
