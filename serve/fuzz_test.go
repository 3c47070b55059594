package serve

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeInferRequest: arbitrary request bodies — including malformed
// INT8 wire tensors (fractional data, out-of-range values, bad scales,
// shape/data mismatches) — must either decode cleanly or fail with
// ErrBadRequest; they must never panic the serving tier. And the decoder
// must agree with encoding/json on every body (checkAgainstStdlib): invalid
// JSON rejected, otherwise the same fields and the same float bits, save for
// the documented stricter readings.
func FuzzDecodeInferRequest(f *testing.F) {
	seed := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(InferRequest{Inputs: []InferTensor{
		{Name: "data", Shape: []int{1, 2}, Datatype: DatatypeFP32, Data: []float32{1, 2}}}})
	seed(InferRequest{Inputs: []InferTensor{
		{Name: "data", Shape: []int{2, 2}, Datatype: DatatypeINT8, Data: []float32{-127, 0, 1, 127}, Scale: 0.5}}})
	seed(InferRequest{Inputs: []InferTensor{
		{Name: "bad", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{3.5}}}})
	seed(InferRequest{Inputs: []InferTensor{
		{Name: "bad", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{200}}}})
	seed(InferRequest{Inputs: []InferTensor{
		{Name: "bad", Shape: []int{1, -1}, Datatype: DatatypeINT8, Data: []float32{1}}}})
	f.Add([]byte(`{"inputs":[{"name":"x","shape":[1],"datatype":"INT8","data":[1],"scale":-3}]}`))
	f.Add([]byte(`{"inputs":[{"name":"x","shape":[1,1000000,1000000],"datatype":"FP32","data":[]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"inputs":[{"name":"x","shape":[4294967296,4294967296],"datatype":"FP32","data":[]}]}`))
	f.Add([]byte(`{"inputs":[{"name":"x","shape":[1,3,16,6148914691236517221],"datatype":"FP32","data":[0,0]}]}`))
	f.Add([]byte(`{"id":"\u00e9","x":[{"y":null}],"inputs":[{"name":"x","shape":[2],"data":[1e-3,null]}],"outputs":[{"name":"o"}]} `))
	f.Add([]byte(`{"Inputs":[],"inputs":[{"data":[16777217,1.00000005960464477539063,1e39]}],"inputs":null}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstStdlib(t, body)
		var req InferRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		inputs, err := req.DecodeInputs()
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		// A successful decode must have produced a valid fp32 tensor per
		// declared input.
		for name, tt := range inputs {
			if tt == nil {
				t.Fatalf("input %q decoded to nil tensor", name)
			}
			if got := len(tt.Data()); got != tt.NumElements() {
				t.Fatalf("input %q: buffer %d != %d elements", name, got, tt.NumElements())
			}
		}
	})
}

// TestDecodeInt8WireTensor pins the INT8 wire contract directly.
func TestDecodeInt8WireTensor(t *testing.T) {
	ok := InferTensor{Name: "x", Shape: []int{2, 2}, Datatype: DatatypeINT8,
		Data: []float32{-127, 0, 64, 127}, Scale: 0.25}
	tt, err := ok.DecodeTensor()
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{-31.75, 0, 16, 31.75}
	for i, v := range want {
		if tt.Data()[i] != v {
			t.Fatalf("element %d: got %v want %v", i, tt.Data()[i], v)
		}
	}
	// Omitted scale means 1.
	noScale := InferTensor{Name: "x", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{-5}}
	tt, err = noScale.DecodeTensor()
	if err != nil {
		t.Fatal(err)
	}
	if tt.Data()[0] != -5 {
		t.Fatalf("scale-1 decode got %v", tt.Data()[0])
	}
	for _, bad := range []InferTensor{
		{Name: "x", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{0.5}},
		{Name: "x", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{-128}},
		{Name: "x", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{128}},
		{Name: "x", Shape: []int{1}, Datatype: DatatypeINT8, Data: []float32{1}, Scale: -1},
		{Name: "x", Shape: []int{1}, Datatype: "INT4", Data: []float32{1}},
	} {
		if _, err := bad.DecodeTensor(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("tensor %+v: want ErrBadRequest, got %v", bad, err)
		}
	}
}
