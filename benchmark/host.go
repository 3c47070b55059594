package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// fingerprint identifies the machine and build a report came from, so two
// reports are only compared knowingly across hosts.
type fingerprint struct {
	Cores      int      `json:"cores"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	CPUModel   string   `json:"cpu_model"`
	ISA        []string `json:"isa_flags"`
	Commit     string   `json:"commit"`
}

// isaPrefixes selects the /proc/cpuinfo flags that decide which kernels a
// SIMD build could use.
var isaPrefixes = []string{"sse4", "avx", "fma", "bmi", "neon", "asimd", "sve"}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		Commit:     gitCommit(".."),
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "model name" && fp.CPUModel == "unknown":
			fp.CPUModel = val
		case (key == "flags" || key == "Features") && fp.ISA == nil:
			for _, fl := range strings.Fields(val) {
				for _, p := range isaPrefixes {
					if strings.HasPrefix(fl, p) {
						fp.ISA = append(fp.ISA, fl)
						break
					}
				}
			}
			sort.Strings(fp.ISA)
		}
	}
	return fp
}

// gitCommit reads the checked-out commit from root/.git without starting a
// process; "unknown" outside a git checkout (the driver's copy is one).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

// hostProbe is the machine's speed at one instant, measured with code the
// engine shares nothing with: a change to the repo cannot move it, so a
// move between the probe before and the probe after a run means the host
// changed under the run.
type hostProbe struct {
	FlopsGFLOPS float64
	CopyGBps    float64
}

// probeBuf is the copy probe's source and destination, 32 MiB each. On a
// host whose last-level cache is larger than that the figure is a cache
// copy rate, not DRAM bandwidth; it is a drift detector either way.
var probeBuf [2][]float32

func probeHost() hostProbe {
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		best = min(best, measureRef(1))
	}
	p := hostProbe{FlopsGFLOPS: refGFLOPS(best)}

	const floats = 8 << 20
	if probeBuf[0] == nil {
		probeBuf[0], probeBuf[1] = make([]float32, floats), make([]float32, floats)
		for i := range probeBuf[0] {
			probeBuf[0][i] = float32(i)
		}
		copy(probeBuf[1], probeBuf[0]) // fault the destination in
	}
	best = time.Duration(math.MaxInt64)
	copy(probeBuf[1], probeBuf[0]) // untimed: whatever ran before owns the caches
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		copy(probeBuf[1], probeBuf[0])
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	// A copy reads and writes every byte.
	p.CopyGBps = 2 * 4 * floats / best.Seconds() / 1e9
	return p
}

// driftLimit is how far the probes before and after a run may differ
// before the run is marked unresolved.
const driftLimit = 0.10

// drift is the larger relative difference between two probes.
func drift(a, b hostProbe) float64 {
	rel := func(x, y float64) float64 {
		if x == 0 && y == 0 {
			return 0
		}
		return math.Abs(x-y) / math.Max(x, y)
	}
	return math.Max(rel(a.FlopsGFLOPS, b.FlopsGFLOPS), rel(a.CopyGBps, b.CopyGBps))
}
