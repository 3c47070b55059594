package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"mnn"
	"mnn/internal/graph"
	"mnn/internal/tensor"
	"mnn/serve"
)

// workload is one named set of inputs and callers. Every workload is a
// closed loop: a caller sends its next operation when the previous one has
// answered.
type workload struct {
	name, why string
	net       string
	// shape is the prepared input shape; with lengths set it is the planned
	// maximum of one dynamic engine and the operations use [1, length, D].
	shape   []int
	lengths []int
	threads int
	int8    bool
	srv     *serveSpec // nil: one caller on Engine.InferInto
}

// serveSpec puts an in-process serve.Server on loopback in front of the
// engine.
type serveSpec struct {
	clients, pool int
	batch         serve.BatchConfig
	queue         int
	mesh          bool // the per-layer pass also measures a mesh.Router hop
}

// workloads is the benchmark; names and whys are mirrored in BENCHMARK.json
// (a test keeps them equal).
var workloads = []*workload{
	{
		name: "mobilenet_fp32_t1",
		why:  "headline net on one thread: 13 pointwise convs on matmul.PackedB dominate, depthwise convs next; a SIMD GEMM must show here. Two threads do not repeat on a shared 2-core host: mnn.thread_speedup",
		net:  "mobilenet-v1", shape: []int{1, 3, 224, 224}, threads: 1,
	},
	{
		name: "squeezenet_int8_t1",
		why:  "int8 GEMM convs, fp32 Winograd 3x3, pool and concat on one thread; control for fp32-GEMM changes (prediction: no move) and guard for the quant path",
		net:  "squeezenet-v1.1", shape: []int{1, 3, 224, 224}, threads: 1, int8: true,
	},
	{
		name: "transformer_dyn_t1",
		why:  "sub-ms model where GELU, softmax, layernorm and per-step overhead dominate; one op sweeps lengths 16, 8, 4 on one dynamic engine, so the shape-plan path runs every call",
		net:  "transformer", shape: []int{1, 16, 32}, lengths: []int{16, 8, 4}, threads: 1,
	},
	{
		name: "serve_transformer_c2",
		why:  "2 HTTP clients on a tiny model: decode, admission, the dynamic batcher, encode and HTTP are most of each request, the engine a small part",
		net:  "transformer", shape: []int{1, 16, 32}, lengths: []int{16, 8, 4}, threads: 1,
		srv: &serveSpec{clients: 2, pool: 2, queue: 16, mesh: true,
			batch: serve.BatchConfig{MaxBatch: 2, MaxLatency: 500 * time.Microsecond, Buckets: 3}},
	},
	{
		name: "serve_squeezenet_c2",
		why:  "2 HTTP clients, 0.5 MB JSON bodies, two single-thread sessions in parallel and no batching; a wire-protocol or pool change shows here, a sched or batcher change must not",
		net:  "squeezenet-v1.1", shape: []int{1, 3, 128, 128}, threads: 1,
		srv: &serveSpec{clients: 2, pool: 2, queue: 16},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shapes lists the input shapes the workload's operations use.
func (w *workload) shapes() [][]int {
	if w.lengths == nil {
		return [][]int{w.shape}
	}
	out := make([][]int, len(w.lengths))
	for i, l := range w.lengths {
		out[i] = []int{w.shape[0], l, w.shape[2]}
	}
	return out
}

// engineOptions are the mnn.Open options of the workload's engine, prepared
// at shape.
func (w *workload) engineOptions(input string, shape []int, threads, pool int) []mnn.Option {
	opts := []mnn.Option{mnn.WithThreads(threads), mnn.WithPoolSize(pool)}
	if w.int8 {
		opts = append(opts, mnn.WithPrecision(mnn.PrecisionInt8))
	}
	shapes := map[string][]int{input: shape}
	if w.lengths != nil {
		return append(opts, mnn.WithMaxInputShapes(shapes))
	}
	return append(opts, mnn.WithInputShapes(shapes))
}

// Output tolerances of the correctness gate: fp32 engines against the naive
// reference interpreter, int8 engines within the budget conformance_test.go
// pins for the squeezenets.
const (
	fp32Tolerance = 2e-4
	int8Tolerance = 1e-4
)

func (w *workload) tolerance() float64 {
	if w.int8 {
		return int8Tolerance
	}
	return fp32Tolerance
}

// variants is how many distinct inputs each shape gets, so that no
// operation can be answered from the previous one's result.
const variants = 2

// ioCase is one input with its gated output.
type ioCase struct {
	shape []int
	in    map[string]*mnn.Tensor
	want  map[string]*mnn.Tensor
	body  []byte // serve workloads: the JSON request
}

// fixture is everything a run derives from (workload, seed) before any
// timing: the serialized model, the inputs and the outputs that passed the
// correctness gate. Systems opened later must reproduce those outputs bit
// for bit.
type fixture struct {
	w     *workload
	seed  uint64
	model []byte     // optimized (and, for int8, calibrated) model file
	g     *mnn.Graph // what model decodes to
	input string
	cases []ioCase // shape-major: cases[s*variants+v]
	// crossErr is the largest difference to the cross-check engine (fp32 at
	// another thread count); for an int8 workload that is its quantization
	// error.
	crossErr float64
}

// newOutputs allocates, per case, the tensors InferInto writes into.
func (fx *fixture) newOutputs() []map[string]*mnn.Tensor {
	outs := make([]map[string]*mnn.Tensor, len(fx.cases))
	for i, c := range fx.cases {
		outs[i] = map[string]*mnn.Tensor{}
		for name, t := range c.want {
			outs[i][name] = mnn.NewTensor(t.Shape()...)
		}
	}
	return outs
}

// sweep calls fn with the case index of every shape in turn, on the variant
// the i-th operation uses: one inference for the CNNs, the length sweep for
// the transformer.
func (fx *fixture) sweep(i int, fn func(idx int) error) error {
	for s := 0; s < len(fx.cases)/variants; s++ {
		if err := fn(s*variants + i%variants); err != nil {
			return err
		}
	}
	return nil
}

// buildGraph runs the offline half of the pipeline: build, optimize and,
// for an int8 workload, calibrate on one seeded sample.
func (w *workload) buildGraph(seed uint64) (*mnn.Graph, error) {
	g, err := mnn.BuildNetwork(w.net)
	if err != nil {
		return nil, err
	}
	if err := mnn.Optimize(g); err != nil {
		return nil, err
	}
	if w.int8 {
		sample := map[string]*mnn.Tensor{g.InputNames[0]: tensor.NewRandom(seed<<8|0xff, 1, w.shape...)}
		if _, err := mnn.Calibrate(g, []map[string]*mnn.Tensor{sample}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// newFixture builds the model and inputs from the seed and runs the
// correctness gate.
func newFixture(w *workload, seed uint64) (*fixture, error) {
	g, err := w.buildGraph(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := mnn.SaveModel(g, &buf); err != nil {
		return nil, err
	}
	fx := &fixture{w: w, seed: seed, model: buf.Bytes()}
	if fx.g, err = mnn.LoadGraph(bytes.NewReader(fx.model)); err != nil {
		return nil, err
	}
	fx.input = fx.g.InputNames[0]
	for s, shape := range w.shapes() {
		for v := 0; v < variants; v++ {
			in := tensor.NewRandom(seed<<8|uint64(s*variants+v), 1, shape...)
			c := ioCase{shape: shape, in: map[string]*mnn.Tensor{fx.input: in}}
			if w.srv != nil {
				req := serve.InferRequest{Inputs: []serve.InferTensor{serve.EncodeTensor(fx.input, in)}}
				if c.body, err = json.Marshal(&req); err != nil {
					return nil, err
				}
			}
			fx.cases = append(fx.cases, c)
		}
	}
	if err := fx.gate(); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return fx, nil
}

// directOracleMULs is the largest graph (in multiplies) the naive reference
// interpreter checks directly; it does about 50 M multiplies a second, so
// mobilenet at 224² would cost 11 s of every run.
const directOracleMULs = 64 << 20

// oracleEdge is the spatial size at which larger CNN inputs are checked
// against the reference interpreter.
const oracleEdge = 64

// gate fills in every case's expected output from an engine opened with the
// workload's options and checks it before anything is timed. A graph small
// enough is compared with mnn.RunReference directly. A larger one is
// compared with the reference at a reduced input size (same options, same
// kernels, fewer pixels) and, at full size, with an fp32 engine at another
// thread count, whose chunking differs while the arithmetic must not.
func (fx *fixture) gate() error {
	w, ctx := fx.w, context.Background()
	eng, err := mnn.Open(fx.g, w.engineOptions(fx.input, w.shape, w.threads, 1)...)
	if err != nil {
		return err
	}
	defer eng.Close()
	for i := range fx.cases {
		if fx.cases[i].want, err = eng.Infer(ctx, fx.cases[i].in); err != nil {
			return err
		}
	}
	tol := w.tolerance()
	if fx.graphMULs(fx.cases[0].shape) <= directOracleMULs {
		for i := range fx.cases {
			ref, err := mnn.RunReference(fx.g, fx.cases[i].in)
			if err != nil {
				return err
			}
			if d := maxDiff(ref, fx.cases[i].want); !(d <= tol) {
				return fmt.Errorf("%s case %d: engine differs from the reference by %.3g (limit %.3g)", w.name, i, d, tol)
			}
		}
		return nil
	}

	if len(w.shape) != 4 || w.lengths != nil {
		return fmt.Errorf("%s: no reduced-size oracle for input shape %v", w.name, w.shape)
	}
	small := []int{w.shape[0], w.shape[1], oracleEdge, oracleEdge}
	in := map[string]*mnn.Tensor{fx.input: tensor.NewRandom(7, 1, small...)}
	got, err := inferOnce(fx.g, in, w.engineOptions(fx.input, small, w.threads, 1)...)
	if err != nil {
		return err
	}
	ref, err := mnn.RunReference(fx.g, in)
	if err != nil {
		return err
	}
	if d := maxDiff(ref, got); !(d <= tol) {
		return fmt.Errorf("%s at %v: engine differs from the reference by %.3g (limit %.3g)", w.name, small, d, tol)
	}

	crossThreads := 1
	if w.threads == 1 {
		crossThreads = 2
	}
	cross, err := mnn.Open(fx.g, mnn.WithThreads(crossThreads),
		mnn.WithInputShapes(map[string][]int{fx.input: w.shape}))
	if err != nil {
		return err
	}
	defer cross.Close()
	for i := range fx.cases {
		out, err := cross.Infer(ctx, fx.cases[i].in)
		if err != nil {
			return err
		}
		d := maxDiff(out, fx.cases[i].want)
		if !(d <= tol) {
			return fmt.Errorf("%s case %d: engine differs from the fp32 threads-%d engine by %.3g (limit %.3g)", w.name, i, crossThreads, d, tol)
		}
		fx.crossErr = math.Max(fx.crossErr, d)
	}
	return nil
}

// inferOnce opens an engine, runs one inference and closes it.
func inferOnce(g *mnn.Graph, in map[string]*mnn.Tensor, opts ...mnn.Option) (map[string]*mnn.Tensor, error) {
	eng, err := mnn.Open(g, opts...)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.Infer(context.Background(), in)
}

// graphMULs counts the multiplies of one inference at the given input shape.
func (fx *fixture) graphMULs(shape []int) int64 {
	shapes, err := graph.InferShapes(fx.g, map[string][]int{fx.input: shape})
	if err != nil {
		return math.MaxInt64
	}
	var total int64
	for _, n := range fx.g.Nodes {
		total += nodeMULs(n, shapes)
	}
	return total
}

// maxDiff is the largest element difference over the outputs of want; a
// missing or differently shaped output is infinitely wrong.
func maxDiff(want, got map[string]*mnn.Tensor) float64 {
	var worst float64
	for name, wt := range want {
		gt := got[name]
		if gt == nil || !tensor.EqualShape(wt.Shape(), gt.Shape()) {
			return math.Inf(1)
		}
		worst = math.Max(worst, tensor.MaxAbsDiff(wt, gt))
	}
	return worst
}

// sameBits reports whether got holds exactly want's outputs.
func sameBits(want, got map[string]*mnn.Tensor) bool {
	for name, wt := range want {
		gt := got[name]
		if gt == nil || !tensor.EqualShape(wt.Shape(), gt.Shape()) {
			return false
		}
		wd, gd := wt.Data(), gt.Data()
		for i, v := range wd {
			if math.Float32bits(v) != math.Float32bits(gd[i]) {
				return false
			}
		}
	}
	return true
}
