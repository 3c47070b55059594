package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// worsening is by how much of base the value got worse (negative: better).
func worsening(base, value float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - value) / base
	}
	return (value - base) / base
}

// compareReports prints, per workload the two reports share, one row per
// metric: base, new, and the ratio new/base. Each end-to-end metric is
// judged against its bound: "regressed" past it, "unresolved" when a side's
// own spread exceeds the bound (the difference cannot be told from noise),
// "ok" otherwise. The per-layer numbers are wall-clock times: a workload
// whose traced pass saw the host probes drift says so. It reports whether
// any metric regressed.
func compareReports(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	a, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	b, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d, %g s × %d)\n", basePath, a.Host.Commit, a.Seed, a.Seconds, a.Repeat)
	fmt.Fprintf(w, "new  %s (commit %s, seed %d, %g s × %d)\n", newPath, b.Host.Commit, b.Seed, b.Seconds, b.Repeat)
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.Cores != b.Host.Cores {
		fmt.Fprintf(w, "warning: different hosts (%s ×%d vs %s ×%d)\n", a.Host.CPUModel, a.Host.Cores, b.Host.CPUModel, b.Host.Cores)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sa, sb := a.Workloads[name], b.Workloads[name]
		fmt.Fprintf(w, "\n%s  (failed %d/%d → %d/%d)\n", name, sa.Failed, sa.Attempted, sb.Failed, sb.Attempted)
		fmt.Fprintf(w, "  %-34s %14s %14s %9s  %-8s %s\n", "metric", "base", "new", "new/base", "unit", "verdict")
		for _, tab := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range tab {
				va, okA := sa.Metrics[def.name]
				vb, okB := sb.Metrics[def.name]
				if !okA || !okB {
					continue
				}
				ratio := "-"
				if va.Value != 0 {
					ratio = fmt.Sprintf("%.3f", vb.Value/va.Value)
				}
				verdict := ""
				if def.bound > 0 {
					worse := worsening(va.Value, vb.Value, def.better)
					switch {
					case worse > def.bound:
						verdict = fmt.Sprintf("regressed %+.1f%% (bound %.0f%%)", worse*100, def.bound*100)
						regressed = true
					case sa.Spread[def.name] > def.bound || sb.Spread[def.name] > def.bound:
						verdict = fmt.Sprintf("unresolved %+.1f%% (bound %.0f%%)", worse*100, def.bound*100)
					default:
						verdict = fmt.Sprintf("ok %+.1f%% (bound %.0f%%)", worse*100, def.bound*100)
					}
				}
				fmt.Fprintf(w, "  %-34s %14.6g %14.6g %9s  %-8s %s\n", def.name, va.Value, vb.Value, ratio, va.Unit, verdict)
			}
		}
		if sa.Unresolved || sb.Unresolved {
			fmt.Fprintf(w, "  per-layer metrics unresolved: the host probes drifted during a traced pass\n")
		}
		if sb.Failed > sa.Failed {
			fmt.Fprintf(w, "  more operations failed than at base\n")
			regressed = true
		}
	}
	return regressed, nil
}
