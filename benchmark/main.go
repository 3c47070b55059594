// Command benchmark is the repository's one benchmark: five named
// workloads, four end-to-end metrics measured with tracing off, and a
// separate traced pass whose per-layer numbers add up to the whole. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run -C benchmark . -workload mobilenet_fp32_t1 -seed 1 -seconds 16 -trace 0
//	go run -C benchmark . -quick                      # every workload, both passes, 2 s windows
//	go run -C benchmark . -repeat 10 -out out/a.json  # medians of ten seeds per workload
//	go run -C benchmark . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// report is the file a run writes under out/ and -compare reads.
type report struct {
	Schema    string              `json:"schema"`
	Host      fingerprint         `json:"host"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Repeat    int                 `json:"repeat"`
	Workloads map[string]*summary `json:"workloads"`
}

const reportSchema = "mnn-benchmark/1"

// summary is one workload in a report: per metric the median over the
// repeats, and the spread the driver judges steadiness by.
type summary struct {
	Correct    bool   `json:"correct"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	Unresolved bool   `json:"unresolved"`
	Error      string `json:"error,omitempty"`
	// Metrics maps name → value; Spread is (Q3−Q1)/median over the repeats,
	// present from four repeats on.
	Metrics     map[string]metricValue `json:"metrics"`
	Spread      map[string]float64     `json:"spread,omitempty"`
	Diagnostics map[string]float64     `json:"diagnostics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Uint64("seed", 1, "seed of the inputs and request order")
		seconds      = flag.Float64("seconds", 16, "length of the measured window")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced; -1: both")
		quick        = flag.Bool("quick", false, "smoke run: 2 s windows, short warm-up; never commit its numbers")
		repeat       = flag.Int("repeat", 1, "runs per workload and pass, on seeds seed, seed+1, …; the report holds medians")
		out          = flag.String("out", "", "report file (default out/report.json, or out/<workload>.trace<n>.json)")
		samples      = flag.Bool("samples", false, "also write every measured set-up, slice and operation to out/samples_<workload>_<seed>.tsv")
		compare      = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two report files"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *quick {
		*seconds = 2
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fatal(errors.New("need -seconds > 0, -repeat >= 1 and -trace in {-1, 0, 1}"))
	}
	// The host has two cores; every workload is sized for them, and a
	// larger host must not change what is measured.
	runtime.GOMAXPROCS(2)

	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		selected = []*workload{w}
	}
	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}

	rep := report{Schema: reportSchema, Host: hostFingerprint(), Seed: *seed, Seconds: *seconds, Repeat: *repeat,
		Workloads: map[string]*summary{}}
	fmt.Printf("# host: %d cores, GOMAXPROCS %d, %s %s, %s, isa %s, commit %s\n", rep.Host.Cores, rep.Host.GOMAXPROCS,
		rep.Host.GoVersion, rep.Host.GOARCH, rep.Host.CPUModel, strings.Join(rep.Host.ISA, ","), rep.Host.Commit)
	timing := newTiming(*seconds, *quick)
	failed := false
	var last *summary
	for _, w := range selected {
		sum := &summary{Correct: true, Metrics: map[string]metricValue{}, Spread: map[string]float64{}, Diagnostics: map[string]float64{}}
		rep.Workloads[w.name] = sum
		last = sum
		for _, pass := range passes {
			var runs []result
			for r := 0; r < *repeat; r++ {
				fmt.Printf("# %s: seed %d, %.0f s window, trace %d\n", w.name, *seed+uint64(r), *seconds, pass)
				res := runPass(w, *seed+uint64(r), pass, timing)
				if res.err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, res.err)
					sum.Error = res.err.Error()
				}
				if *samples && pass == 0 {
					if err := writeSamples(filepath.Join("out", fmt.Sprintf("samples_%s_%d.tsv", w.name, *seed+uint64(r))), res.setups, res.slices); err != nil {
						fatal(err)
					}
				}
				runs = append(runs, res)
			}
			sum.merge(runs)
		}
		sum.print()
		failed = failed || !sum.Correct
	}

	path := *out
	if path == "" {
		path = filepath.Join("out", "report.json")
		if len(selected) == 1 && len(passes) == 1 {
			path = filepath.Join("out", fmt.Sprintf("%s.trace%d.json", selected[0].name, passes[0]))
		}
	}
	if err := writeJSON(path, &rep); err != nil {
		fatal(err)
	}
	fmt.Printf("# report: %s\n", path)

	if len(selected) == 1 && len(passes) == 1 {
		// The driver's contract: the last line of standard output is the
		// result of the one workload and pass that ran. A run that could
		// not measure prints no result.
		if last.Error != "" && last.Attempted == 0 {
			os.Exit(1)
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runPass builds the fixture (inputs and the correctness gate) and runs one
// pass over it. The traced pass writes its spans to out/trace_<workload>.jsonl.
func runPass(w *workload, seed uint64, pass int, t timing) result {
	fx, err := newFixture(w, seed)
	if err != nil {
		return result{err: err}
	}
	if pass == 0 {
		return runEndToEnd(fx, t)
	}
	tr := newTracer(w.name)
	res := runPerLayer(fx, t, tr)
	if err := tr.write(filepath.Join("out", "trace_"+w.name+".jsonl")); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// merge folds the runs of one pass into the summary: counts add up, each
// metric and diagnostic becomes its median over the runs.
func (s *summary) merge(runs []result) {
	values := map[string][]float64{}
	diags := map[string][]float64{}
	for _, r := range runs {
		s.Correct = s.Correct && r.Correct && r.err == nil
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Unresolved = s.Unresolved || r.Unresolved
		for name, v := range r.Metrics {
			values[name] = append(values[name], v)
		}
		for name, v := range r.Diagnostics {
			diags[name] = append(diags[name], v)
		}
	}
	for name, vs := range values {
		med := median(vs)
		s.Metrics[name] = metricValue{Value: med, Unit: unitOf(name)}
		if len(vs) >= 4 && med != 0 {
			q1, q3 := quartiles(vs)
			s.Spread[name] = (q3 - q1) / med
		}
	}
	for name, vs := range diags {
		s.Diagnostics[name] = median(vs)
	}
}

// print lists every metric by name with its unit, then the diagnostics.
func (s *summary) print() {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range tab {
			mv, ok := s.Metrics[def.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-34s %14.6g %s", def.name, mv.Value, mv.Unit)
			if sp, ok := s.Spread[def.name]; ok {
				line += fmt.Sprintf("   (spread %.3f)", sp)
			}
			fmt.Println(line)
		}
	}
	names := make([]string, 0, len(s.Diagnostics))
	for name := range s.Diagnostics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %-32s %14.6g\n", name, s.Diagnostics[name])
	}
	if s.Unresolved {
		fmt.Printf("# per-layer metrics unresolved: the host probes before and after the traced pass differ by more than %.0f%%\n", driftLimit*100)
	}
	fmt.Printf("# operations attempted %d, failed %d, correct %v\n", s.Attempted, s.Failed, s.Correct)
}

// writeSamples lists what an end-to-end pass measured, one line each, times
// in milliseconds: "setup <n> <reference> <busy share> <took>", "slice <n>
// <reference> <busy share> <operations> <caller time>" and "op <slice>
// <latency>".
func writeSamples(path string, setups, slices []slice) error {
	var b strings.Builder
	for i, s := range setups {
		fmt.Fprintf(&b, "setup\t%d\t%.4f\t%.4f\t%.4f\n", i, ms(s.ref), s.busy, ms(s.times[0]))
	}
	for i, s := range slices {
		fmt.Fprintf(&b, "slice\t%d\t%.4f\t%.4f\t%d\t%.4f\n", i, ms(s.ref), s.busy, s.ops, ms(s.callerTime))
		for _, l := range s.times {
			fmt.Fprintf(&b, "op\t%d\t%.4f\n", i, ms(l))
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
