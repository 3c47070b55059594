// Package serve turns the in-process Engine API into a network serving
// tier: a Registry of named models (each an independently configured
// mnn.Engine with hot load/unload), a per-model dynamic micro-batcher that
// coalesces concurrent single requests into one batched run, and an HTTP
// server speaking a KServe-V2-inspired JSON inference protocol.
//
// The protocol mirrors the KServe "Open Inference Protocol" (v2) routes:
//
//	GET  /v2                                  server metadata
//	GET  /v2/health/live                      liveness
//	GET  /v2/health/ready                     readiness
//	GET  /v2/models                           list loaded models
//	GET  /v2/models/{name}                    model metadata
//	GET  /v2/models/{name}/ready              per-model readiness
//	POST /v2/models/{name}/infer              run inference
//	POST   /v2/repository/models/{name}/load    hot-load a model
//	POST   /v2/repository/models/{name}/unload  hot-unload a model
//	DELETE /v2/repository/models/{name}         alias for unload
//	GET  /metrics                             Prometheus text exposition
//
// Tensors travel as named JSON objects with an explicit shape and a flat
// float32 data array ("FP32"), matching how Engine.Infer consumes and
// produces dense NCHW tensors.
//
// Models loaded with an admission queue gain SLO-aware load shedding:
// requests that cannot meet their deadline (X-Request-Timeout /
// X-Request-Deadline headers, or the model's configured SLO) are rejected
// with HTTP 429 and a Retry-After header instead of timing out late, and
// X-Request-Priority ("high", "normal", "batch") picks the queueing class.
package serve

import (
	"errors"
	"fmt"
	"math"

	"mnn"
	"mnn/internal/tensor"
)

// DatatypeFP32 is the engine's native wire datatype: responses are always
// FP32, requests usually are.
const DatatypeFP32 = "FP32"

// DatatypeINT8 is the quantized request datatype: data carries integer
// values in [-127, 127] and the optional "scale" field dequantizes them
// (real = value·scale, scale 1 when omitted). The engine computes on the
// dequantized fp32 tensor — per-model int8 execution is selected at load
// time with the "precision" option, not per request.
const DatatypeINT8 = "INT8"

// Sentinel errors of the serving tier. Wrap-aware: test with errors.Is.
var (
	// ErrModelNotFound is returned by Registry lookups and mapped to HTTP
	// 404 by the server.
	ErrModelNotFound = errors.New("serve: model not found")

	// ErrBadRequest marks a malformed protocol body (bad tensor encoding,
	// unknown datatype, shape/data disagreement) and maps to HTTP 400.
	ErrBadRequest = errors.New("serve: bad request")

	// ErrServerClosed is returned by Server.Serve after Shutdown.
	ErrServerClosed = errors.New("serve: server closed")

	// ErrModelQuarantined marks a model taken out of rotation after
	// repeated kernel panics; it maps to HTTP 503 with an
	// X-Model-Quarantined header so the mesh router routes around the
	// replica instead of retrying into the same fault.
	ErrModelQuarantined = errors.New("serve: model quarantined")

	// ErrBatchSplit marks a batched run whose outputs do not carry one
	// row per stacked request; every member of the batch gets it (HTTP 500).
	ErrBatchSplit = errors.New("serve: batched outputs cannot be split per request")
)

// TensorMetadata describes one model input or output in metadata responses.
type TensorMetadata struct {
	Name     string `json:"name"`
	Datatype string `json:"datatype"`
	Shape    []int  `json:"shape"`
}

// ModelMetadata is the GET /v2/models/{name} response body.
type ModelMetadata struct {
	Name string `json:"name"`
	// Version is the registry version this metadata describes (model
	// references are "name[:version]"; bare names resolve the default
	// version).
	Version  string `json:"version,omitempty"`
	Platform string `json:"platform"`
	// Precision is the execution precision the model was loaded with
	// ("fp32" or "int8"); the wire tensors stay FP32 either way.
	Precision string           `json:"precision,omitempty"`
	Inputs    []TensorMetadata `json:"inputs"`
	Outputs   []TensorMetadata `json:"outputs,omitempty"`
}

// ServerMetadata is the GET /v2 response body.
type ServerMetadata struct {
	Name       string   `json:"name"`
	Version    string   `json:"version"`
	Extensions []string `json:"extensions"`
}

// ModelList is the GET /v2/models response body.
type ModelList struct {
	// Models lists the loaded model names (version-less, back-compatible).
	Models []string `json:"models"`
	// Refs lists every loaded "name:version" reference.
	Refs []string `json:"refs,omitempty"`
}

// InferTensor is one named tensor on the wire: an explicit shape plus the
// flat data in NCHW (row-major) order. FP32 tensors use Data as-is; INT8
// tensors carry quantized integers in Data with an optional Scale.
type InferTensor struct {
	Name     string    `json:"name"`
	Shape    []int     `json:"shape"`
	Datatype string    `json:"datatype"`
	Data     []float32 `json:"data"`
	// Scale dequantizes INT8 data (real = value·scale); 0/omitted means 1.
	Scale float32 `json:"scale,omitempty"`
}

// InferRequest is the POST /v2/models/{name}/infer request body.
type InferRequest struct {
	ID     string        `json:"id,omitempty"`
	Inputs []InferTensor `json:"inputs"`
	// Outputs optionally restricts which model outputs are returned.
	Outputs []RequestedOutput `json:"outputs,omitempty"`
}

// RequestedOutput names one output the client wants back.
type RequestedOutput struct {
	Name string `json:"name"`
}

// InferResponse is the POST /v2/models/{name}/infer response body.
type InferResponse struct {
	ModelName string `json:"model_name"`
	ID        string `json:"id,omitempty"`
	// Precision is the execution precision that actually served this
	// request; it differs from the model's loaded precision ("int8" vs
	// "fp32") exactly when the request was served by the degrade engine
	// under overload.
	Precision string        `json:"precision,omitempty"`
	Outputs   []InferTensor `json:"outputs"`
}

// ErrorResponse is the JSON body of every non-2xx protocol response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// EncodeTensor converts an engine tensor into its wire form, copying the
// logical contents out in NCHW order.
func EncodeTensor(name string, t *mnn.Tensor) InferTensor {
	nchw := t.ToLayout(tensor.NCHW)
	data := nchw.Data()
	if nchw == t { // already NCHW: the wire form must not alias the engine's tensor
		data = append([]float32(nil), data...)
	}
	return InferTensor{
		Name:     name,
		Shape:    append([]int(nil), t.Shape()...),
		Datatype: DatatypeFP32,
		Data:     data,
	}
}

// DecodeTensor validates a wire tensor and converts it into an engine
// tensor that takes over it.Data as its buffer (INT8 data is dequantized in
// place), so the wire tensor is spent afterwards. Every failure wraps
// ErrBadRequest.
func (it InferTensor) DecodeTensor() (*mnn.Tensor, error) {
	if it.Name == "" {
		return nil, fmt.Errorf("%w: tensor with empty name", ErrBadRequest)
	}
	if it.Datatype != DatatypeFP32 && it.Datatype != DatatypeINT8 {
		return nil, fmt.Errorf("%w: tensor %q has datatype %q (want %s or %s)",
			ErrBadRequest, it.Name, it.Datatype, DatatypeFP32, DatatypeINT8)
	}
	if len(it.Shape) == 0 {
		return nil, fmt.Errorf("%w: tensor %q has no shape", ErrBadRequest, it.Name)
	}
	// A JSON number and its comma take two bytes, so no body under the cap
	// carries more elements than this; it also keeps the product from
	// wrapping around.
	const maxElements = MaxBodyBytes / 2
	n := 1
	for _, d := range it.Shape {
		if d <= 0 || d > maxElements/n {
			return nil, fmt.Errorf("%w: tensor %q shape %v has a non-positive dim or more than %d elements",
				ErrBadRequest, it.Name, it.Shape, maxElements)
		}
		n *= d
	}
	if len(it.Data) != n {
		return nil, fmt.Errorf("%w: tensor %q shape %v wants %d elements, got %d",
			ErrBadRequest, it.Name, it.Shape, n, len(it.Data))
	}
	if it.Datatype == DatatypeINT8 {
		if err := it.dequantizeInt8(); err != nil {
			return nil, err
		}
	}
	return tensor.FromData(it.Data, it.Shape...), nil
}

// dequantizeInt8 validates a quantized wire tensor — every value an integer
// in the symmetric int8 range, a finite positive scale — and dequantizes
// it.Data in place into the fp32 values the engine consumes. Every failure
// wraps ErrBadRequest; malformed payloads must never panic (the protocol
// fuzz suite pins this).
func (it InferTensor) dequantizeInt8() error {
	scale := it.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
		return fmt.Errorf("%w: tensor %q has invalid int8 scale %v", ErrBadRequest, it.Name, it.Scale)
	}
	for i, v := range it.Data {
		if v != float32(int32(v)) || v < -127 || v > 127 {
			// Catches fractions, NaN, ±Inf and out-of-range values alike:
			// NaN fails the equality, ±Inf fails the range check.
			return fmt.Errorf("%w: tensor %q datum %d (%v) is not an int8 value in [-127, 127]",
				ErrBadRequest, it.Name, i, v)
		}
		it.Data[i] = v * scale
	}
	return nil
}

// DecodeInputs converts a request's input list into the map Engine.Infer
// consumes, rejecting duplicates and empty input lists.
func (r *InferRequest) DecodeInputs() (map[string]*mnn.Tensor, error) {
	if len(r.Inputs) == 0 {
		return nil, fmt.Errorf("%w: request has no inputs", ErrBadRequest)
	}
	inputs := make(map[string]*mnn.Tensor, len(r.Inputs))
	for _, it := range r.Inputs {
		t, err := it.DecodeTensor()
		if err != nil {
			return nil, err
		}
		if _, dup := inputs[it.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate input tensor %q", ErrBadRequest, it.Name)
		}
		inputs[it.Name] = t
	}
	return inputs, nil
}

// EncodeOutputs converts an Engine.Infer result into a response body,
// honouring the request's optional output selection. Outputs are emitted in
// the engine's declared order for deterministic bodies.
func (r *InferRequest) EncodeOutputs(modelName string, order []string, outputs map[string]*mnn.Tensor) (*InferResponse, error) {
	want := order
	if len(r.Outputs) > 0 {
		want = make([]string, len(r.Outputs))
		for i, o := range r.Outputs {
			want[i] = o.Name
		}
	}
	resp := &InferResponse{ModelName: modelName, ID: r.ID, Outputs: make([]InferTensor, 0, len(want))}
	for _, name := range want {
		t, ok := outputs[name]
		if !ok {
			return nil, fmt.Errorf("%w: unknown output %q (model outputs: %v)", ErrBadRequest, name, order)
		}
		resp.Outputs = append(resp.Outputs, EncodeTensor(name, t))
	}
	return resp, nil
}
