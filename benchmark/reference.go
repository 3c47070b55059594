package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// The host is a few cores of a shared machine, and its neighbours slow it in
// phases that last from a fraction of a second to minutes: the engine's
// kernels then take 1.5–1.9 times as long, whole runs included, while code
// that waits (on a timer, on its own dependency chains) does not move at
// all. No statistic over one run's wall times removes a phase that covers
// the run, so the end-to-end pass times a reference of the benchmark's own
// next to everything it measures and reports times as they would read on a
// host that runs the reference in refNominal. The reference shares no code
// with the repository: a change to the engine cannot move it.

// The reference is part arithmetic, part streaming, like an inference: a
// 128³ fp32 matrix product with a 4×4 register tile in plain Go, refReps
// times (192 KiB, at home in the second-level cache), then refPasses passes
// of y += a·x over 8 MiB. The neighbours slow the product 1.5–1.7× and the
// stream 2–2.3× where the engine's workloads slow 1.7–1.9×; three parts of
// arithmetic to one of streaming tracked the workloads best (README.md, "How
// steady it is").
const (
	refDim    = 128
	refReps   = 15 // 18.3 ms on the quiet host
	refPasses = 8  // 6.6 ms on the quiet host
	refFloats = 1 << 20
)

// refNominal is what one reference measurement takes on this host when
// nothing disturbs it. Normalized times are those of a host this fast.
const refNominal = 24900 * time.Microsecond

// refFlops is the arithmetic of the products of one measurement.
const refFlops = 2 * refDim * refDim * refDim * refReps

// refOperands holds one lane's matrices and streamed vectors.
type refOperands struct{ a, b, c, x, y []float32 }

// refLanes are the operands of the two lanes a measurement can use.
var refLanes = func() (ls [2]refOperands) {
	for l := range ls {
		o := refOperands{a: make([]float32, refDim*refDim), b: make([]float32, refDim*refDim), c: make([]float32, refDim*refDim),
			x: make([]float32, refFloats), y: make([]float32, refFloats)}
		for i := range o.a {
			o.a[i], o.b[i] = float32(i%7)*0.25, float32(i%5)*0.5
		}
		for i := range o.x {
			o.x[i] = float32(i%3) * 1e-3
		}
		ls[l] = o
	}
	return ls
}()

// refProduct computes c = a·b once.
func refProduct(o *refOperands) {
	const n = refDim
	for i := 0; i < n; i += 4 {
		a0, a1, a2, a3 := o.a[i*n:(i+1)*n], o.a[(i+1)*n:(i+2)*n], o.a[(i+2)*n:(i+3)*n], o.a[(i+3)*n:(i+4)*n]
		for j := 0; j < n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33 float32
			for p := 0; p < n; p++ {
				b := o.b[p*n+j : p*n+j+4 : p*n+j+4]
				b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
				x0, x1, x2, x3 := a0[p], a1[p], a2[p], a3[p]
				c00 += x0 * b0
				c01 += x0 * b1
				c02 += x0 * b2
				c03 += x0 * b3
				c10 += x1 * b0
				c11 += x1 * b1
				c12 += x1 * b2
				c13 += x1 * b3
				c20 += x2 * b0
				c21 += x2 * b1
				c22 += x2 * b2
				c23 += x2 * b3
				c30 += x3 * b0
				c31 += x3 * b1
				c32 += x3 * b2
				c33 += x3 * b3
			}
			r0, r1, r2, r3 := o.c[i*n+j:], o.c[(i+1)*n+j:], o.c[(i+2)*n+j:], o.c[(i+3)*n+j:]
			r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
			r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
			r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
			r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
		}
	}
}

// refArithmetic times the products of one measurement on lane l.
func refArithmetic(l int) time.Duration {
	t0 := time.Now()
	for r := 0; r < refReps; r++ {
		refProduct(&refLanes[l])
	}
	return time.Since(t0)
}

// refGFLOPS is the rate of products that took d (refArithmetic).
func refGFLOPS(d time.Duration) float64 {
	return refFlops / d.Seconds() / 1e9
}

// refStream times the streaming passes of one measurement on lane l.
func refStream(l int) time.Duration {
	t0 := time.Now()
	x, y := refLanes[l].x, refLanes[l].y[:refFloats]
	for r := 0; r < refPasses; r++ {
		for i := range x {
			y[i] += 0.5 * x[i]
		}
	}
	return time.Since(t0)
}

// measureRef runs the reference on each of `lanes` goroutines at once (as
// many as the workload keeps cores busy) and returns the mean lane time.
func measureRef(lanes int) time.Duration {
	if lanes == 1 {
		return refArithmetic(0) + refStream(0)
	}
	var took [2]time.Duration
	var wg sync.WaitGroup
	for l := range took {
		wg.Add(1)
		go func() { defer wg.Done(); took[l] = refArithmetic(l) + refStream(l) }()
	}
	wg.Wait()
	return (took[0] + took[1]) / 2
}

// cpuTime is the processor time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slice is a stretch of measured work between two reference measurements.
type slice struct {
	ref time.Duration // mean of the reference before and the reference after
	// busy is the share of the stretch the workload's lanes spent computing:
	// processor time ÷ (wall time × lanes), at most 1. The rest is waiting
	// (a batch window, a wake-up, the loopback), which the neighbours do not
	// stretch.
	busy  float64
	times []time.Duration
	// ops and callerTime: operations completed and the time the callers
	// spent on them, summed over the callers (each caller's time runs to its
	// own last completion), for the rate.
	ops        int
	callerTime time.Duration
}

// measured runs work, which returns its wall time, between two reference
// measurements, the first of which the caller already has. It returns the
// slice with ref and busy filled in, and the reference after it.
func measured(before time.Duration, lanes int, work func() time.Duration) (slice, time.Duration) {
	cpu := cpuTime()
	wall := work()
	cpu = cpuTime() - cpu
	after := measureRef(lanes)
	s := slice{ref: (before + after) / 2, busy: 1}
	if wall > 0 {
		s.busy = min(1, cpu.Seconds()/(wall.Seconds()*float64(lanes)))
	}
	return s, after
}

// normalized converts a time measured in the slice to the nominal host's, in
// seconds: the busy share shrinks or grows with the reference, the waiting
// share stays.
func (s *slice) normalized(d time.Duration) float64 {
	return d.Seconds() * (1 - s.busy + s.busy*refNominal.Seconds()/s.ref.Seconds())
}

// quietShare is the share of a pass's slices that count: the ones whose
// reference ran fastest. The reference tracks the neighbours' phases but not
// exactly, so what is left of a phase after normalizing is avoided by
// reading the slices that were least in one. The choice looks at the
// reference only, never at the measured times, so it cannot favour lucky
// operations.
const quietShare = 3

// quietSlices returns the 1/quietShare of the slices with the fastest
// reference (at least one).
func quietSlices(slices []slice) []slice {
	s := append([]slice(nil), slices...)
	sort.SliceStable(s, func(a, b int) bool { return s[a].ref < s[b].ref })
	return s[:(len(s)+quietShare-1)/quietShare]
}

// normalizedMedian is the median normalized time over the slices, in seconds.
func normalizedMedian(slices []slice) float64 {
	var pool []float64
	for i := range slices {
		for _, d := range slices[i].times {
			pool = append(pool, slices[i].normalized(d))
		}
	}
	return median(pool)
}

// normalizedRate is the operations per normalized second of caller time over
// the slices, times the callers: what the closed loop completes per second.
func normalizedRate(slices []slice, callers int) float64 {
	var ops int
	var callerTime float64
	for i := range slices {
		ops += slices[i].ops
		callerTime += slices[i].normalized(slices[i].callerTime)
	}
	if callerTime == 0 {
		return 0
	}
	return float64(ops) * float64(callers) / callerTime
}
