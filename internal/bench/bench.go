// Package bench reproduces the paper's evaluation: one experiment per table,
// figure and ablation, each printing the paper's published value next to
// this reproduction's measured/simulated value.
//
// Two kinds of numbers appear (see DESIGN.md):
//   - "host" rows are real wall-clock measurements of this repository's
//     kernels on the machine running the benchmark;
//   - "sim" rows come from the Equation 5 device simulator (phone-grade
//     hardware being unavailable), which preserves the paper's relative
//     orderings by construction of the cost model.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Options controls experiment effort.
type Options struct {
	// Quick reduces repetitions/problem sizes for use inside `go test`.
	Quick bool
	// Out receives the formatted report (default os.Stdout at callers).
	Out io.Writer
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// medianOf runs fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0)
	}
	// insertion sort; reps is tiny
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2]
}

// minOf runs fn reps times and returns the shortest duration: the estimate
// of a deterministic kernel's cost that a loaded host disturbs least.
func minOf(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < max(reps, 1); i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Experiment names accepted by Run.
var Experiments = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
	"figure7", "figure8", "figure9",
	"ablation-strassen", "ablation-layout", "ablation-memory", "ablation-tile",
}

// Run dispatches one experiment by name.
func Run(name string, opt Options) error {
	switch name {
	case "table1":
		return Table1(opt)
	case "table2":
		return Table2(opt)
	case "table3":
		return Table3(opt)
	case "table4":
		return Table4(opt)
	case "table5":
		return Table5(opt)
	case "table6":
		return Table6(opt)
	case "table7":
		return Table7(opt)
	case "table8":
		return Table8(opt)
	case "figure7":
		return Figure7(opt)
	case "figure8":
		return Figure8(opt)
	case "figure9":
		return Figure9(opt)
	case "ablation-strassen":
		return AblationStrassen(opt)
	case "ablation-layout":
		return AblationLayout(opt)
	case "ablation-memory":
		return AblationMemory(opt)
	case "ablation-tile":
		return AblationTile(opt)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
}
