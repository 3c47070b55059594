package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"mnn"
	"mnn/internal/converter"
	"mnn/internal/graph"
	"mnn/internal/matmul"
	"mnn/internal/optimizer"
	"mnn/internal/sched"
	"mnn/internal/tensor"
	"mnn/serve/admission"
)

// layerPass is the traced pass over one workload: it times calls into each
// layer's public functions from outside and records a span around each.
// Every section gets a fixed share of the pass's time budget, so the pass
// lasts about as long as the end-to-end window whatever the model costs.
type layerPass struct {
	fx     *fixture
	budget time.Duration
	tr     *tracer
	m, d   map[string]float64 // metrics, diagnostics
	opID   int                // next operation id for spans
	res    *result
	outs   []map[string]*mnn.Tensor // per case: InferInto's destination
}

func (p *layerPass) share(f float64) time.Duration {
	return time.Duration(f * float64(p.budget))
}

// span times fn as a root span of a new operation.
func (p *layerPass) span(layer, name string, fn func()) time.Duration {
	p.opID++
	return p.tr.timed(p.opID, layer, name, -1, fn)
}

// runPerLayer produces every per-layer metric for the workload; the ones
// that do not apply stay 0.
func runPerLayer(fx *fixture, t timing, tr *tracer) result {
	res := result{Metrics: map[string]float64{}, Diagnostics: map[string]float64{}}
	for _, def := range perLayer {
		res.Metrics[def.name] = 0
	}
	p := &layerPass{fx: fx, budget: t.window, tr: tr, m: res.Metrics, d: res.Diagnostics, res: &res}

	before := probeHost()
	sections := []func() error{p.modelLayers, p.engineLayers, p.matmulLayers, p.schedLayers, p.quantLayers, p.admissionLayer}
	if fx.w.srv != nil {
		sections = append(sections, p.serveLayers)
	}
	for _, section := range sections {
		if err := section(); err != nil {
			res.err = err
			return res
		}
	}
	after := probeHost()
	p.m["host.flops_probe_gflops"] = (before.FlopsGFLOPS + after.FlopsGFLOPS) / 2
	p.m["host.copy_gbps"] = (before.CopyGBps + after.CopyGBps) / 2
	if probe := p.m["host.flops_probe_gflops"]; probe > 0 {
		p.d["kernels.total_frac_of_probe"] = p.m["kernels.total_gflops"] / probe
		p.d["matmul.packedb_frac_of_probe"] = p.m["matmul.packedb_gflops"] / probe
	}
	noteProbes(&res, before, after)
	// The per-layer numbers are wall-clock times: a host that moved under
	// the pass leaves them unresolved.
	res.Unresolved = p.d["host.drift_frac"] > driftLimit
	for layer, v := range selfByLayer(tr.spans) {
		p.d["trace.self_ms."+layer] = v
	}
	p.d["trace.spans"] = float64(len(tr.spans))
	p.d["trace.spans_dropped"] = float64(tr.dropped)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// note counts one verified operation of the pass.
func (p *layerPass) note(ok bool) {
	p.res.Attempted++
	if !ok {
		p.res.Failed++
	}
}

// modelLayers prices the offline half: optimizer passes over a freshly
// built graph and the converter decoding the model file.
func (p *layerPass) modelLayers() error {
	const reps = 3
	var opt, load []float64
	for r := 0; r < reps; r++ {
		g, err := mnn.BuildNetwork(p.fx.w.net)
		if err != nil {
			return err
		}
		p.m["optimizer.nodes_before"] = float64(len(g.Nodes))
		opt = append(opt, ms(p.span("optimizer", "optimizer.Optimize", func() { err = optimizer.Optimize(g) })))
		if err != nil {
			return err
		}
		p.m["optimizer.nodes_after"] = float64(len(g.Nodes))
		load = append(load, ms(p.span("converter", "converter.Load", func() { _, err = converter.Load(bytes.NewReader(p.fx.model)) })))
		if err != nil {
			return err
		}
	}
	p.m["optimizer.optimize_ms"] = median(opt)
	p.m["converter.load_ms"] = median(load)
	p.m["converter.model_mib"] = float64(len(p.fx.model)) / (1 << 20)
	return nil
}

// engineLayers opens the workload's engine for one caller and takes it
// apart: open and first inference, the planned memory, InferInto against
// InferProfiled's per-operator times, the allocation count, and the
// speed-up of two threads over one.
func (p *layerPass) engineLayers() error {
	fx, w, ctx := p.fx, p.fx.w, context.Background()
	opts := w.engineOptions(fx.input, w.shape, w.threads, 1)

	var eng *mnn.Engine
	var open, first []float64
	for r := 0; r < 3; r++ {
		if eng != nil {
			eng.Close()
		}
		g, err := converter.Load(bytes.NewReader(fx.model))
		if err != nil {
			return err
		}
		open = append(open, ms(p.span("mnn", "mnn.Open", func() { eng, err = mnn.Open(g, opts...) })))
		if err != nil {
			return err
		}
		var out map[string]*mnn.Tensor
		first = append(first, ms(p.span("mnn", "Engine.Infer(first)", func() { out, err = eng.Infer(ctx, fx.cases[0].in) })))
		if err != nil {
			eng.Close()
			return err
		}
		p.note(sameBits(fx.cases[0].want, out))
	}
	defer eng.Close()
	p.m["mnn.open_ms"], p.m["mnn.first_infer_ms"] = median(open), median(first)

	st := eng.Stats()
	p.m["session.prepare_ms"] = ms(st.PrepareTime)
	var arena, noReuse int
	for _, n := range st.ArenaFloats {
		arena += n
	}
	for _, n := range st.NoReuseFloats {
		noReuse += n
	}
	p.m["memory.arena_mib"] = float64(arena) * 4 / (1 << 20)
	p.m["memory.no_reuse_mib"] = float64(noReuse) * 4 / (1 << 20)
	if noReuse > 0 {
		p.m["memory.reuse_ratio"] = float64(arena) / float64(noReuse)
	}

	p.outs = fx.newOutputs()
	intoP50, err := p.profileLayers(eng)
	if err != nil {
		return err
	}
	if err := p.allocLayers(eng, intoP50); err != nil {
		return err
	}
	// The same engine on both of the host's cores.
	eng2, err := mnn.Open(fx.g, w.engineOptions(fx.input, w.shape, 2, 1)...)
	if err != nil {
		return err
	}
	defer eng2.Close()
	// At another thread count the chunking, and with it the order of the
	// GEMM's additions, differs: the output matches within the gate's
	// tolerance, not bit for bit.
	within := func(want, got map[string]*mnn.Tensor) bool { return maxDiff(want, got) <= w.tolerance() }
	// One thread and two in turn, so that a phase of the host hits both.
	var speedups, t2 []float64
	deadline := time.Now().Add(p.share(0.15))
	for i := 0; time.Now().Before(deadline) || i < 3; i++ {
		d1, err := p.inferInto(eng, sameBits, i, false)
		if err != nil {
			return err
		}
		d2, err := p.inferInto(eng2, within, i, false)
		if err != nil {
			return err
		}
		speedups, t2 = append(speedups, d1.Seconds()/d2.Seconds()), append(t2, ms(d2))
	}
	p.m["mnn.thread_speedup"] = median(speedups)
	p.d["mnn.infer_into_t2_p50_ms"] = median(t2)
	return nil
}

// inferInto is one operation as the end-to-end pass runs it: InferInto over
// the sweep, each output checked with same. It returns the time spent
// inside InferInto.
func (p *layerPass) inferInto(e *mnn.Engine, same func(want, got map[string]*mnn.Tensor) bool, i int, traced bool) (time.Duration, error) {
	var total time.Duration
	root := -1
	if traced {
		p.opID++
		root = p.tr.add(p.opID, "bench", "op", time.Now(), time.Now(), -1)
	}
	err := p.fx.sweep(i, func(idx int) error {
		c := &p.fx.cases[idx]
		t0 := time.Now()
		err := e.InferInto(context.Background(), c.in, p.outs[idx])
		t1 := time.Now()
		total += t1.Sub(t0)
		if traced {
			p.tr.add(p.opID, "mnn", "Engine.InferInto", t0, t1, root)
		}
		if err == nil {
			p.note(same(c.want, p.outs[idx]))
		}
		return err
	})
	p.tr.closeAt(root, time.Now())
	return total, err
}

// profileLayers alternates InferInto and InferProfiled sweeps (so host
// drift hits both alike) and reports InferInto's p50, the per-class
// operator times, what they leave unexplained, and the achieved arithmetic
// rates. It returns InferInto's p50 in ms.
func (p *layerPass) profileLayers(eng *mnn.Engine) (float64, error) {
	fx, ctx := p.fx, context.Background()
	classIdx := map[string]int{}
	for i, c := range opClasses {
		classIdx[c] = i
	}
	classOf := map[string]int{} // node name → class
	for _, n := range fx.g.Nodes {
		classOf[n.Name] = classIdx[classify(n)]
	}

	var into, profiled []float64
	perClass := make([][]float64, len(opClasses))
	steps := 0
	deadline := time.Now().Add(p.share(0.35))
	for i := 0; time.Now().Before(deadline) || i < 3; i++ {
		dt, err := p.inferInto(eng, sameBits, i, true)
		if err != nil {
			return 0, err
		}
		into = append(into, ms(dt))

		var total time.Duration
		classSum := make([]time.Duration, len(opClasses))
		steps = 0
		p.opID++
		root := p.tr.add(p.opID, "bench", "op", time.Now(), time.Now(), -1)
		err = fx.sweep(i, func(idx int) error {
			c := &fx.cases[idx]
			t0 := time.Now()
			out, prof, err := eng.InferProfiled(ctx, c.in)
			t1 := time.Now()
			if err != nil {
				return err
			}
			total += t1.Sub(t0)
			call := p.tr.add(p.opID, "mnn", "Engine.InferProfiled", t0, t1, root)
			// The profile reports durations, not start times: the step
			// spans are laid back to back from the call's start, and what
			// they leave uncovered is the call's self time.
			at := t0
			for _, e := range prof.Entries {
				classSum[classOf[e.Node]] += e.Wall
				p.tr.add(p.opID, "session", e.Node, at, at.Add(e.Wall), call)
				at = at.Add(e.Wall)
			}
			steps += len(prof.Entries)
			p.note(sameBits(c.want, out))
			return nil
		})
		if err != nil {
			return 0, err
		}
		p.tr.closeAt(root, time.Now())
		profiled = append(profiled, ms(total))
		for c := range perClass {
			perClass[c] = append(perClass[c], ms(classSum[c]))
		}
	}
	intoP50 := median(into)
	var opSum float64
	classMs := make([]float64, len(opClasses))
	for c, name := range opClasses {
		classMs[c] = median(perClass[c])
		p.m["session.op."+name+"_ms"] = classMs[c]
		opSum += classMs[c]
	}
	p.m["mnn.infer_into_p50_ms"] = intoP50
	p.m["mnn.residual_frac"] = (intoP50 - opSum) / intoP50
	p.m["mnn.trace_overhead_frac"] = (median(profiled) - intoP50) / intoP50
	p.m["session.steps"] = float64(steps)
	p.m["session.per_step_overhead_us"] = (intoP50 - opSum) * 1000 / float64(steps)
	p.d["mnn.infer_into_samples"] = float64(len(into))
	p.d["session.op_sum_ms"] = opSum
	p.d["mnn.residual_ms"] = intoP50 - opSum

	// Achieved arithmetic rate per class: 2 flops per multiply over the
	// class's time, the multiplies summed over the sweep's shapes.
	classMULs := make([]int64, len(opClasses))
	var geluElems int64
	for _, shape := range fx.w.shapes() {
		shapes, err := graph.InferShapes(fx.g, map[string][]int{fx.input: shape})
		if err != nil {
			return 0, err
		}
		for _, n := range fx.g.Nodes {
			classMULs[classOf[n.Name]] += nodeMULs(n, shapes)
			if n.Op == graph.OpGELU {
				geluElems += int64(tensor.NumElements(shapes[n.Outputs[0]]))
			}
		}
	}
	gflops := func(muls int64, millis float64) float64 {
		if millis <= 0 {
			return 0
		}
		return 2 * float64(muls) / (millis * 1e-3) / 1e9
	}
	var denseMULs int64
	for _, c := range []string{"conv1x1", "conv_dw", "conv3x3", "conv_other", "fc", "matmul"} {
		denseMULs += classMULs[classIdx[c]]
	}
	p.m["kernels.total_gflops"] = gflops(denseMULs, intoP50)
	for _, c := range []string{"conv1x1", "conv_dw", "conv3x3", "matmul"} {
		p.m["kernels."+c+"_gflops"] = gflops(classMULs[classIdx[c]], classMs[classIdx[c]])
	}
	if t := classMs[classIdx["gelu"]]; t > 0 {
		p.m["kernels.gelu_melem_s"] = float64(geluElems) / (t * 1e-3) / 1e6
	}
	return intoP50, nil
}

// allocLayers counts the allocations of steady-state InferInto the way
// testing.AllocsPerRun does: on one P (a second P allocates on its own now
// and then), with nothing else running. The two uncounted operations let
// the runtime refill what the collection emptied (a GC drops the cached
// sudogs the worker pool's channels use).
func (p *layerPass) allocLayers(eng *mnn.Engine, intoP50 float64) error {
	ops := max(3, min(200, int(p.share(0.05).Seconds()*1000/intoP50)))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	for i := -2; i < ops; i++ {
		if i == 0 {
			runtime.ReadMemStats(&m0)
		}
		if _, err := p.inferInto(eng, sameBits, i+2, false); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	p.m["mnn.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	p.m["mnn.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	return nil
}

// timeLoop calls fn in batches of `batch` until d has passed (at least
// three batches) and returns the median time of one call.
func timeLoop(d time.Duration, batch int, fn func()) time.Duration {
	var per []float64
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || i < 3; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return time.Duration(median(per))
}

// matmulLayers runs the GEMM kernels alone, single-threaded, at the
// workload's largest GEMM (most multiplies among its dense convs, FC layers
// and weight MatMuls): the packed fp32 kernel the engine uses, packing
// itself, the Strassen kernel, and the int8 kernel.
func (p *layerPass) matmulLayers() error {
	fx := p.fx
	shapes, err := graph.InferShapes(fx.g, map[string][]int{fx.input: fx.w.shape})
	if err != nil {
		return err
	}
	var gs gemmShape
	for _, n := range fx.g.Nodes {
		if s, ok := nodeGEMM(n, shapes); ok && s.muls() > gs.muls() {
			gs = s
		}
	}
	if gs.muls() == 0 {
		return fmt.Errorf("%s: graph has no GEMM", fx.w.name)
	}
	m, k, n := gs.m, gs.k, gs.n
	p.d["matmul.m"], p.d["matmul.k"], p.d["matmul.n"] = float64(m), float64(k), float64(n)
	a := tensor.NewRandom(11, 1, m, k).Data()
	b := tensor.NewRandom(12, 1, k, n).Data()
	dst := make([]float32, m*n)
	flops := 2 * float64(gs.muls())
	rate := func(d time.Duration) float64 { return flops / d.Seconds() / 1e9 }
	each := p.share(0.03)

	var pb *matmul.PackedB
	p.m["matmul.packb_ms"] = ms(timeLoop(each, 1, func() { pb = matmul.PackB(b, k, n) }))
	p.opID++
	p.m["matmul.packedb_gflops"] = rate(timeLoop(each, 1, func() {
		p.tr.timed(p.opID, "matmul", "PackedB.MulInto", -1, func() { pb.MulInto(dst, a, m) })
	}))
	scratch := make([]float32, matmul.StrassenScratch(m, k, n))
	p.m["matmul.strassen_gflops"] = rate(timeLoop(each, 1, func() {
		p.tr.timed(p.opID, "matmul", "MulStrassenScratch", -1, func() { matmul.MulStrassenScratch(dst, a, b, m, k, n, scratch) })
	}))

	rng := rand.New(rand.NewPCG(13, 14))
	a8, b8 := make([]int8, m*k), make([]int8, k*n)
	for i := range a8 {
		a8[i] = int8(rng.IntN(255) - 127)
	}
	for i := range b8 {
		b8[i] = int8(rng.IntN(255) - 127)
	}
	pb8 := matmul.PackBInt8(b8, k, n)
	dst32, rowSums := make([]int32, m*n), make([]int32, matmul.Int8GemmScratch(m))
	p.m["matmul.int8_gops"] = rate(timeLoop(each, 1, func() {
		p.tr.timed(p.opID, "matmul", "PackedBInt8.MulInto", -1, func() { pb8.MulInto(dst32, a8, m, rowSums) })
	}))
	return nil
}

type emptyTask struct{}

func (emptyTask) RunChunk(worker, start, end int) {}

// spinTask does a fixed amount of arithmetic per item, so a dispatch over
// lanes has nothing to gain or lose but the pool's own splitting.
type spinTask struct{ out []float32 }

func (t *spinTask) RunChunk(worker, start, end int) {
	for i := start; i < end; i++ {
		x := float32(i)
		for j := 0; j < 20000; j++ {
			x = x*0.999 + 0.001
		}
		t.out[i] = x
	}
}

// schedLayers prices the worker pool alone on the host's two cores: an empty
// task through Pool.Run, and how much of a fixed arithmetic task's one-lane
// time lanes·T_lanes spends (1 = perfect scaling).
func (p *layerPass) schedLayers() error {
	const lanes = 2
	pool := sched.New(lanes)
	defer pool.Close()
	p.opID++
	p.m["sched.dispatch_us"] = us(timeLoop(p.share(0.02), 200, func() { pool.Run(lanes, 1, emptyTask{}) }))

	const items = 64
	task := &spinTask{out: make([]float32, items)}
	single := sched.New(1)
	defer single.Close()
	t1 := timeLoop(p.share(0.03), 1, func() { single.Run(items, 0, task) })
	tn := timeLoop(p.share(0.03), 1, func() {
		p.tr.timed(p.opID, "sched", "Pool.Run", -1, func() { pool.Run(items, sched.Chunk(items, lanes, 4), task) })
	})
	p.m["sched.scaling_efficiency"] = t1.Seconds() / (float64(lanes) * tn.Seconds())
	return nil
}

// quantLayers describes the int8 partition of an int8 workload: the share
// of convolution multiplies planned int8, the quant/dequant boundaries, and
// the output error against the fp32 engine the gate measured.
func (p *layerPass) quantLayers() error {
	fx := p.fx
	if !fx.w.int8 {
		return nil
	}
	in := map[string][]int{fx.input: fx.w.shape}
	plan, err := optimizer.PlanInt8(fx.g, in)
	if err != nil {
		return err
	}
	shapes, err := graph.InferShapes(fx.g, in)
	if err != nil {
		return err
	}
	var conv, convInt8 int64
	for _, n := range fx.g.Nodes {
		if n.Op == graph.OpConv2D {
			muls := nodeMULs(n, shapes)
			conv += muls
			if plan.Int8[n.Name] {
				convInt8 += muls
			}
		}
	}
	if conv > 0 {
		p.m["quant.int8_conv_frac"] = float64(convInt8) / float64(conv)
	}
	p.m["quant.boundaries"] = float64(plan.QuantBoundaries + plan.DequantBoundaries)
	p.m["quant.max_abs_err"] = fx.crossErr
	return nil
}

// admissionLayer prices an uncontended Acquire/Release pair on a
// stand-alone controller.
func (p *layerPass) admissionLayer() error {
	ctrl := admission.New(admission.Config{Name: "bench", Depth: 16, Concurrency: 2})
	defer ctrl.Close()
	ctx := context.Background()
	var err error
	p.m["admission.acquire_release_us"] = us(timeLoop(p.share(0.02), 200, func() {
		tk, aerr := ctrl.Acquire(ctx, admission.Normal)
		if aerr != nil {
			err = aerr
			return
		}
		tk.Release()
	}))
	return err
}
