package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mnn/internal/sched"
)

// Every experiment must run clean in quick mode and emit its table header —
// this is the regression net for the harness behind cmd/mnnbench. An
// experiment without an entry in headers fails rather than matching any
// output with an empty header.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment end to end (~5s even in quick mode)")
	}
	headers := map[string]string{
		"table1":            "Table 1",
		"table2":            "Table 2",
		"table3":            "Table 3",
		"table4":            "Table 4",
		"table5":            "Table 5",
		"table6":            "Table 6",
		"table7":            "Table 7",
		"table8":            "Table 8",
		"figure7":           "Figure 7",
		"figure8":           "Figure 8",
		"figure9":           "Figure 9",
		"ablation-strassen": "Strassen",
		"ablation-layout":   "NC4HW4",
		"ablation-memory":   "memory",
		"ablation-tile":     "tile",
	}
	for _, exp := range Experiments {
		t.Run(exp, func(t *testing.T) {
			header, ok := headers[exp]
			if !ok {
				t.Fatalf("experiment %q has no expected header", exp)
			}
			var buf bytes.Buffer
			if err := Run(exp, Options{Quick: true, Out: &buf}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), header) {
				t.Errorf("output missing header %q:\n%s", header, buf.String())
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("table99", Options{Quick: true, Out: &bytes.Buffer{}}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestTable2ShapePreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sessions")
	}
	rows, err := Table2Rows(Options{Quick: true, Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The CPU row's effect is only a few percent (the paper's 6.5–7.6%) and
	// host wall-clock noise under `go test` can exceed it, so allow slack.
	if cpuRow := rows[0]; cpuRow.With > cpuRow.WithoutMs*1.15 {
		t.Errorf("%s: decoupled run (%.1f) should not be clearly slower than interleaved (%.1f)",
			cpuRow.Label, cpuRow.With, cpuRow.WithoutMs)
	}
	for _, r := range rows[1:] {
		if r.With >= r.WithoutMs {
			t.Errorf("%s: decoupling must help (w/ %.1f vs w/o %.1f)", r.Label, r.With, r.WithoutMs)
		}
	}
	// GPU rows must show the paper's dramatic (≥40%) improvement.
	for _, r := range rows[1:] {
		drop := (r.WithoutMs - r.With) / r.WithoutMs
		if drop < 0.40 {
			t.Errorf("%s: GPU drop %.0f%%, want ≥40%%", r.Label, drop*100)
		}
	}
}

func TestTable1OursTracksBest(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real conv kernels repeatedly (~5s)")
	}
	// For each Table 1 case, "ours" must be within 40% of the best fixed
	// scheme (the paper's claim: best or comparable-to-best). The schemes
	// run round-robin for a fixed time per case and each keeps its minimum,
	// so a short case gets as many samples as its time holds and a busy
	// stretch of this shared host falls on every side alike.
	const perCase = time.Second
	schemes := []string{"sliding", "wino2", "wino6", "ours"}
	pool := sched.New(1)
	defer pool.Close()
	for _, c := range Table1Cases {
		runs := make([]func(), len(schemes))
		for i, scheme := range schemes {
			run, err := table1Run(c, scheme, pool)
			if err != nil {
				t.Fatal(err)
			}
			run() // warm up
			runs[i] = run
		}
		least := make([]float64, len(schemes))
		for start := time.Now(); time.Since(start) < perCase; {
			for i, run := range runs {
				if m := ms(minOf(1, run)); least[i] == 0 || m < least[i] {
					least[i] = m
				}
			}
		}
		best, ours := min(least[0], least[1], least[2]), least[3]
		t.Logf("case (%d,%d,%d,%d): sliding %.2f, wino2 %.2f, wino6 %.2f, ours %.2f ms: ours ÷ best %.2f",
			c.K, c.IC, c.OC, c.Size, least[0], least[1], least[2], ours, ours/best)
		if ours > best*1.4 {
			t.Errorf("case (%d,%d,%d,%d): ours %.1f ms vs best fixed %.1f ms",
				c.K, c.IC, c.OC, c.Size, ours, best)
		}
	}
}
