package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mnn/internal/tensor"
)

// shadowRequest is InferRequest without methods: what encoding/json's
// reflection makes of a body, the oracle of the hand-written decoder.
type shadowRequest struct {
	ID     string `json:"id,omitempty"`
	Inputs []struct {
		Name     string    `json:"name"`
		Shape    []int     `json:"shape"`
		Datatype string    `json:"datatype"`
		Data     []float32 `json:"data"`
		Scale    float32   `json:"scale,omitempty"`
	} `json:"inputs"`
	Outputs []RequestedOutput `json:"outputs,omitempty"`
}

// sameAsShadow compares field by field, floats by their bits; nil and empty
// slices are the same request.
func sameAsShadow(req *InferRequest, sh *shadowRequest) error {
	if req.ID != sh.ID || len(req.Inputs) != len(sh.Inputs) || len(req.Outputs) != len(sh.Outputs) {
		return fmt.Errorf("id %q, %d inputs, %d outputs; encoding/json: id %q, %d inputs, %d outputs",
			req.ID, len(req.Inputs), len(req.Outputs), sh.ID, len(sh.Inputs), len(sh.Outputs))
	}
	for i, o := range req.Outputs {
		if o != sh.Outputs[i] {
			return fmt.Errorf("output %d: %q, encoding/json %q", i, o.Name, sh.Outputs[i].Name)
		}
	}
	for i, it := range req.Inputs {
		s := sh.Inputs[i]
		if it.Name != s.Name || it.Datatype != s.Datatype || !tensor.EqualShape(it.Shape, s.Shape) ||
			math.Float32bits(it.Scale) != math.Float32bits(s.Scale) || len(it.Data) != len(s.Data) {
			return fmt.Errorf("input %d: %+v, encoding/json %+v", i, it, s)
		}
		for j, v := range it.Data {
			if math.Float32bits(v) != math.Float32bits(s.Data[j]) {
				return fmt.Errorf("input %d datum %d: %v (%#x), encoding/json %v (%#x)",
					i, j, v, math.Float32bits(v), s.Data[j], math.Float32bits(s.Data[j]))
			}
		}
	}
	return nil
}

// stricterThanStdlib reports whether body (valid JSON) holds, in one of the
// schema's objects, a key that repeats or that equals a known key only after
// case folding: the two spellings decodeInferRequest documents reading
// differently from encoding/json.
func stricterThanStdlib(body []byte) bool {
	strict := false
	object := func(raw json.RawMessage, known []string, field func(key string, v json.RawMessage)) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		if t, _ := dec.Token(); t != json.Delim('{') {
			return
		}
		seen := map[string]bool{}
		for dec.More() {
			t, _ := dec.Token()
			key, _ := t.(string)
			var v json.RawMessage
			if dec.Decode(&v) != nil {
				return
			}
			for _, k := range known {
				if strings.EqualFold(key, k) {
					strict = strict || key != k || seen[k]
					seen[k] = true
					field(k, v)
				}
			}
		}
	}
	each := func(v json.RawMessage, elem func(json.RawMessage)) {
		var elems []json.RawMessage
		if json.Unmarshal(v, &elems) == nil {
			for _, e := range elems {
				elem(e)
			}
		}
	}
	object(body, requestKeys, func(key string, v json.RawMessage) {
		switch key {
		case "inputs":
			each(v, func(e json.RawMessage) { object(e, tensorKeys, func(string, json.RawMessage) {}) })
		case "outputs":
			each(v, func(e json.RawMessage) { object(e, outputKeys, func(string, json.RawMessage) {}) })
		}
	})
	return strict
}

// checkAgainstStdlib is the differential oracle of the decoder, shared by
// the table tests and the fuzz target. It reports whether body decoded.
func checkAgainstStdlib(t *testing.T, body []byte) bool {
	t.Helper()
	var req InferRequest
	err := decodeInferRequest(body, &req)
	if err != nil && !errors.Is(err, ErrBadRequest) {
		t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
	}
	var viaJSON InferRequest
	if jerr := json.Unmarshal(body, &viaJSON); (jerr == nil) != (err == nil) {
		t.Fatalf("direct decode: %v, through json.Unmarshal: %v", err, jerr)
	}
	if !json.Valid(body) {
		if err == nil {
			t.Fatalf("accepted invalid JSON")
		}
		return false
	}
	var sh shadowRequest
	serr := json.Unmarshal(body, &sh)
	switch {
	case stricterThanStdlib(body):
		// Documented: we may reject or read it differently.
	case serr == nil && err != nil:
		t.Fatalf("encoding/json accepts, decoder rejects: %v", err)
	case serr != nil && err == nil:
		t.Fatalf("decoder accepts, encoding/json rejects: %v", serr)
	case err == nil:
		if derr := sameAsShadow(&req, &sh); derr != nil {
			t.Fatal(derr)
		}
	}
	return err == nil
}

// TestDecodeInferRequestAgainstStdlib walks the decoder's corners one body
// each: null everywhere encoding/json takes it, escapes, unknown keys of
// every kind, number spellings, and the syntax errors next to them.
func TestDecodeInferRequestAgainstStdlib(t *testing.T) {
	deep := strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1)
	for _, body := range []string{
		`{"id":"a","inputs":[{"name":"x","shape":[1,2],"datatype":"FP32","data":[1,2.5]}],"outputs":[{"name":"y"}]}`,
		" \t\r\n{ \"inputs\" : [ { \"data\" : [ 1 , 2 ] , \"shape\" : [ 2 ] } ] } \n",
		`null`, `{}`, `[]`, `3`, `"s"`, `true`, ``, ` `, `{`, `{"inputs"`, `{"inputs":`, `{"inputs":[`, `{"inputs":[{`,
		`{"id":null,"inputs":null,"outputs":null}`,
		`{"inputs":[null,{"name":null,"shape":null,"datatype":null,"data":null,"scale":null}],"outputs":[null]}`,
		`{"inputs":[{"shape":[null,2],"data":[null,1,null]}]}`,
		`{"inputs":[{"data":[]},{"data":[ ]},{"shape":[]}],"outputs":[]}`,
		`{"id":"é\n\"\\\/😀\ud800","inputs":[{"name":"\u0000"}]}`,
		"{\"id\":\"\xff\xc0raw\"}", "{\"id\":\"a\tb\"}", `{"id":"\x"}`, `{"id":"\u12"}`, `{"id":"abc}`,
		`{"x":{"a":[1,{"b":null}],"c":"d"},"y":[],"z":{},"t":true,"f":false,"n":null,"e":1e999,"":0}`,
		`{"x":tru}`, `{"x":nul}`, `{"x":[1,]}`, `{"x":{,}}`, `{"x":{"a"}}`, `{"x":1,}`, `{,}`, `{"x" 1}`, `{"x":+1}`,
		`{"x":` + deep + `}`, `{"x":[` + deep + `]}`,
		`{"inputs":[{"x":` + deep[2:len(deep)-2] + `}]}`, `{"inputs":[{"x":` + deep[1:len(deep)-1] + `}]}`,
		`{"inputs":[{"data":[0,-0,0.0,-0.0,1e0,1E+2,1e-2,0.1e1,123456789012345678901234567890,1.5e-45,3.4028235e38]}]}`,
		`{"inputs":[{"data":[3.4028236e38]}]}`, `{"inputs":[{"data":[1e39]}]}`, `{"inputs":[{"scale":-1e39}]}`, `{"inputs":[{"scale":1e-60}]}`,
		`{"inputs":[{"data":[01]}]}`, `{"inputs":[{"data":[1.]}]}`, `{"inputs":[{"data":[.5]}]}`, `{"inputs":[{"data":[-]}]}`,
		`{"inputs":[{"data":[1e]}]}`, `{"inputs":[{"data":[1e+]}]}`, `{"inputs":[{"data":[1,]}]}`, `{"inputs":[{"data":[,1]}]}`,
		`{"inputs":[{"data":[1 2]}]}`, `{"inputs":[{"data":[1}]}`, `{"inputs":[{"data":[1`, `{"inputs":[{"data":[NaN]}]}`,
		`{"inputs":[{"data":["1"]}]}`, `{"inputs":[{"data":[[1]]}]}`, `{"inputs":[{"data":[true]}]}`, `{"inputs":[{"data":{}}]}`, `{"inputs":[{"data":1}]}`,
		`{"inputs":[{"shape":[0,-0,-1,9223372036854775807,-9223372036854775808]}]}`,
		`{"inputs":[{"shape":[9223372036854775808]}]}`, `{"inputs":[{"shape":[1.0]}]}`, `{"inputs":[{"shape":[1e2]}]}`,
		`{"inputs":[{"shape":[01]}]}`, `{"inputs":[{"shape":[-]}]}`, `{"inputs":[{"shape":["1"]}]}`, `{"inputs":[{"shape":3}]}`,
		`{"inputs":[{"name":1}]}`, `{"inputs":[{"name":["x"]}]}`, `{"inputs":[{"scale":"1"}]}`, `{"inputs":[{"scale":[1]}]}`,
		`{"inputs":{}}`, `{"inputs":[[]]}`, `{"inputs":[1]}`, `{"inputs":"x"}`, `{"outputs":[{"name":1}]}`, `{"outputs":[[]]}`, `{"id":1}`, `{"id":{}}`,
		`{"inputs":[]} x`, `{"inputs":[]}{`, `{"inputs":[]},`, `nullx`, `null null`,
		`{"Inputs":[{"name":"x"}],"ID":"a"}`, `{"inputs":[{"Name":"x","DATA":[1]}]}`, `{"id":"a","id":"b"}`,
		`{"inputs":[{"data":[1],"data":[2]}]}`, `{"inputs":[],"inputs":[]}`, `{"x":1,"x":2}`, `{"outputs":[{"name":"a","name":"b"}]}`,
	} {
		t.Run("", func(t *testing.T) { checkAgainstStdlib(t, []byte(body)) })
	}
}

// TestDecodeGeneratedRequestsAgainstStdlib runs the differential oracle over
// request-shaped JSON a coverage-guided byte fuzzer takes long to reach:
// random values under the schema's keys (case-folded and repeated now and
// then), random whitespace, and one random byte edit in half of the bodies.
// Tensors' data arrays run to 40 numbers and more, the odd member spelled so
// that floats' tight loop hands over mid-array.
func TestDecodeGeneratedRequestsAgainstStdlib(t *testing.T) {
	r := tensor.NewRNG(17)
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	ws := func() string { return pick("", "", "", " ", "\n", "\t \r") }
	var value func(depth int) string
	members := func(depth int, open, closing string, member func() string) string {
		var b strings.Builder
		b.WriteString(open + ws())
		for i, n := 0, r.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteString(ws() + "," + ws())
			}
			b.WriteString(member())
		}
		return b.String() + ws() + closing
	}
	number := func() string {
		return pick("0", "-0", "1", "-1.5", "2.5e3", "1e-7", "0.1", "16777217", "3.4028235e38", "1e39", "1e999",
			"12", "224", "-3", "9223372036854775808", "01", "1.", "0.0010925309", strconv.FormatFloat(float64(r.Float32()), 'g', -1, 32))
	}
	str := func() string {
		return pick(`"x"`, `""`, `"data"`, `"FP32"`, `"INT8"`, `"\u00e9\n"`, `"é"`, "\"\xff\"", `"\ud800"`, `"a\"b"`, "\"\x01\"", `"\q"`)
	}
	key := func() string {
		return pick(`"id"`, `"inputs"`, `"outputs"`, `"name"`, `"shape"`, `"datatype"`, `"data"`, `"scale"`,
			`"name"`, `"shape"`, `"data"`, `"Data"`, `"INPUTS"`, `"parameters"`, `"d\u0061ta"`, str())
	}
	data := func() string {
		var b strings.Builder
		b.WriteString("[")
		scale := []float32{1, 1, 1000, 1e7}[r.Intn(4)]
		for i, n := 0, 40+r.Intn(40); i < n; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			if r.Intn(12) == 0 {
				b.WriteString(ws() + pick(number(), "null") + ws())
				continue
			}
			b.WriteString(strconv.FormatFloat(float64(r.Float32()*scale), 'f', -1, 32))
		}
		return b.String() + "]"
	}
	value = func(depth int) string {
		switch k := r.Intn(10); {
		case depth > 5 || k < 3:
			return pick(number(), number(), str(), "null", "true", "false")
		case k < 6:
			return members(depth, "[", "]", func() string { return value(depth + 1) })
		default:
			return members(depth, "{", "}", func() string { return key() + ws() + ":" + ws() + value(depth+1) })
		}
	}
	const edits = "{}[],:\"\\ 0e.-nx\x00"
	var body []byte
	accepted := 0
	defer func() {
		if t.Failed() {
			t.Logf("body %q", body)
		}
	}()
	for i := 0; i < 20000; i++ {
		body = []byte(ws() + value(0) + ws())
		if i%3 == 0 { // the shape of a real request, so whole tensors decode
			d := data()
			if r.Intn(3) == 0 {
				d = value(4)
			}
			body = []byte(`{"inputs":[{"name":"x","shape":` + value(4) + `,"data":` + d + `,` + key() + `:` + value(3) + `}],` + key() + `:` + value(1) + `}`)
		}
		if r.Intn(2) == 0 && len(body) > 0 {
			body[r.Intn(len(body))] = edits[r.Intn(len(edits))]
		}
		if checkAgainstStdlib(t, body) {
			accepted++
		}
	}
	if accepted < 2000 {
		t.Fatalf("only %d of 20000 generated bodies decode: the generator no longer exercises the accepting paths", accepted)
	}
}

// TestDecodeStricterThanStdlib pins the decoder's three deliberate
// departures from encoding/json, and that nothing else about such bodies
// changes.
func TestDecodeStricterThanStdlib(t *testing.T) {
	var req InferRequest
	for _, body := range []string{
		`{"id":"a","id":"b"}`,
		`{"inputs":[{"name":"x","data":[1],"data":[2]}]}`,
		`{"outputs":[{"name":"a","name":"a"}]}`,
		`{"inputs":[]} garbage {`,
		`{"inputs":[]}{"inputs":[]}`,
	} {
		if err := decodeInferRequest([]byte(body), &req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", body, err)
		}
	}
	// A case-folded key is an unknown key: skipped, not an error of its own.
	req = InferRequest{}
	if err := decodeInferRequest([]byte(`{"ID":"a","Inputs":[{"name":"x"}],"inputs":[{"Name":"y","name":"z"}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.ID != "" || len(req.Inputs) != 1 || req.Inputs[0].Name != "z" {
		t.Fatalf("case-folded keys were read: %+v", req)
	}
	// Unknown keys may repeat.
	if err := decodeInferRequest([]byte(`{"parameters":1,"parameters":{}}`), &req); err != nil {
		t.Fatal(err)
	}
}

// TestInferBodyStrictnessOverHTTP: the handler reads the body without
// encoding/json in front, so the decoder alone turns trailing bytes, a
// duplicate key, a body over the cap and a chunked body into the right
// status.
func TestInferBodyStrictnessOverHTTP(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Load("tiny", ModelConfig{Model: tinyGraph(t)}); err != nil {
		t.Fatal(err)
	}
	base, _ := startServer(t, reg)
	m, _ := reg.Get("tiny")
	md, err := m.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(&InferRequest{Inputs: []InferTensor{EncodeTensor("data", tensor.NewRandom(7, 1, md.Inputs[0].Shape...))}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte, contentLength int64) int {
		t.Helper()
		// Wrapped, so that net/http does not take the length from the reader.
		hreq, err := http.NewRequest(http.MethodPost, base+"/v2/models/tiny/infer", struct{ *bytes.Reader }{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		hreq.ContentLength = contentLength // -1: chunked
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || (resp.StatusCode != http.StatusOK) != (e.Error != "") {
			t.Fatalf("status %d with error body %q (%v)", resp.StatusCode, e.Error, err)
		}
		return resp.StatusCode
	}
	for _, c := range []struct {
		label string
		body  []byte
		want  int
	}{
		{"valid", valid, http.StatusOK},
		{"valid, trailing whitespace", append(bytes.Clone(valid), " \n"...), http.StatusOK},
		{"trailing bytes", append(bytes.Clone(valid), " garbage {"...), http.StatusBadRequest},
		{"second object", append(bytes.Clone(valid), valid...), http.StatusBadRequest},
		{"duplicate key", append(bytes.Clone(valid[:len(valid)-1]), `,"inputs":[]}`...), http.StatusBadRequest},
		{"truncated", valid[:len(valid)/2], http.StatusBadRequest},
		{"empty", nil, http.StatusBadRequest},
	} {
		if got := post(c.body, int64(len(c.body))); got != c.want {
			t.Errorf("%s: status %d, want %d", c.label, got, c.want)
		}
		if got := post(c.body, -1); got != c.want {
			t.Errorf("%s, chunked: status %d, want %d", c.label, got, c.want)
		}
	}
}

// TestShapeProductOverflow: a shape whose element count wraps an int (to 0,
// or to the data's length) is a bad request, not a tensor.
func TestShapeProductOverflow(t *testing.T) {
	for _, body := range []string{
		`{"inputs":[{"name":"x","shape":[4294967296,4294967296],"datatype":"FP32","data":[]}]}`,
		`{"inputs":[{"name":"x","shape":[1,3,16,6148914691236517221],"datatype":"FP32","data":[` + strings.Repeat("0,", 751) + `0]}]}`,
		`{"inputs":[{"name":"x","shape":[134217729],"datatype":"FP32","data":[1]}]}`,
		`{"inputs":[{"name":"x","shape":[2,67108865],"datatype":"INT8","data":[1]}]}`,
	} {
		var req InferRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%.80s: %v", body, err)
		}
		if _, err := req.DecodeInputs(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%.80s: err = %v, want ErrBadRequest", body, err)
		}
	}
}

// float32Seeds are number spellings around every edge of parseFloat32's fast
// path: float32 rounding midpoints, subnormals, the overflow threshold, 15
// to 19 digit mantissas, the largest exact power of ten.
var float32Seeds = []string{
	"0", "-0", "-0.0", "0e5", "-0e-5", "1", "-1.5", "0.1", "0.0010925309", "1e22", "1e23", "1e-22", "1e-23",
	"16777217", "16777219", "1.00000005960464477539062", "1.00000005960464477539063", "0.50000002980232238769531250",
	"33554434", "33554438e1", "8388608.5", "8388609.5", "4194304.25", "4194304.75",
	"1.17549435e-38", "1.1754942e-38", "1e-45", "7e-46", "1.4e-45", "1e-46", "1e-50", "0.00000000000000000000000000000000000001",
	"3.4028235e38", "3.4028236e38", "3.40282356e38", "340282356779733661637539395458142568448", "1e38", "1e39", "-1e39",
	"123456789012345", "1234567890123456", "12345678901234567", "123456789012345678", "1234567890123456789", "12345678901234567890",
	"0.000000000000001", "0.0000000000000001", "999999999999999e22", "999999999999999e-22", "1e9999999999", "1e-9999999999",
	"+1", "01", ".5", "1.", "0x1p3", "1_0", "Inf", "NaN", "-", "1e", "1e+", "-.5", "1.e3", " 1", "1 ", "",
}

// isJSONNumber is JSON's number grammar, written apart from the parser.
func isJSONNumber(s string) bool {
	digits := func() bool {
		n := 0
		for len(s) > 0 && '0' <= s[0] && s[0] <= '9' {
			s, n = s[1:], n+1
		}
		return n > 0
	}
	s = strings.TrimPrefix(s, "-")
	if strings.HasPrefix(s, "0") {
		s = s[1:]
	} else if !digits() {
		return false
	}
	if strings.HasPrefix(s, ".") {
		if s = s[1:]; !digits() {
			return false
		}
	}
	if strings.HasPrefix(s, "e") || strings.HasPrefix(s, "E") {
		if s = s[1:]; strings.HasPrefix(s, "+") || strings.HasPrefix(s, "-") {
			s = s[1:]
		}
		if !digits() {
			return false
		}
	}
	return s == ""
}

// checkParseFloat32: a JSON number parses to strconv's bits or strconv's
// range error; anything else — strconv reads some of them — is not a number.
// It checks s alone, and followed by an array's next comma or its end,
// padded so that the 19 bytes parseFloat32's fast path needs remain.
func checkParseFloat32(t *testing.T, s string) {
	t.Helper()
	pad := strings.Repeat(" ", 24)
	for _, tail := range []string{"", "," + pad, "]}" + pad} {
		checkParseFloat32Tail(t, s, tail)
	}
}

// checkParseFloat32Tail checks s read from the front of s+tail.
func checkParseFloat32Tail(t *testing.T, s, tail string) {
	t.Helper()
	v, end, err := parseFloat32([]byte(s+tail), 0)
	if !isJSONNumber(s) {
		if end == len(s) && s != "" {
			t.Fatalf("%q (before %q) is not a JSON number, parsed as %v", s, tail, v)
		}
		return
	}
	want, werr := strconv.ParseFloat(s, 32)
	if end != len(s) || (err == nil) != (werr == nil) {
		t.Fatalf("%q (before %q): end %d, err %v; strconv: %v", s, tail, end, err, werr)
	}
	if err == nil && math.Float32bits(v) != math.Float32bits(float32(want)) {
		t.Fatalf("%q (before %q): %v (%#x), strconv %v (%#x)", s, tail, v, math.Float32bits(v), float32(want), math.Float32bits(float32(want)))
	}
}

func FuzzParseFloat32(f *testing.F) {
	for _, s := range float32Seeds {
		f.Add(s)
	}
	f.Fuzz(checkParseFloat32)
}

// TestParseFloat32FastPath pins parseFloat32's 8-bytes-at-a-time path to
// strconv's bits at its edges: digit runs that end inside, at and past a
// chunk; integer parts of one, eight and nine digits; an exponent right
// behind a chunk; mantissas of 2^53 and more (9.007246494293213 rounds
// wrong from its float64); decimals whose float64 is a float32 midpoint
// that they are not (0.012073605787009); numbers that end the body. Each is
// read alone and followed by digits, which a second chunk read past the
// number's end sees.
func TestParseFloat32FastPath(t *testing.T) {
	for _, s := range []string{
		"0.1234567", "0.12345678", "0.123456789", "0.123456789012345", "0.1234567890123456", "0.12345678901234567",
		"-0.1234567", "-0.12345678", "-0.123456789", "-0.123456789012345", "-0.1234567890123456",
		"0.5", "-0.60466176", "0.0010925309", "0.0076293945", "0.999999940395", "9.5", "-7.25",
		"12345678.5", "-12345678.25", "12345678.12345678", "123456789.5", "10.5", "99999999.9", "1234567.123456789",
		"-0.0", "0.0", "0.0000000000000001", "0.000000000000001", "-0.000000000000001",
		"1.2345678e3", "1.23456789e3", "0.25E-1", "0.12345678E+2", "12.5e1",
		"9.007199254740991", "9.007199254740993", "9.999999999999999", "9.007246494293213", "90.07199254740993", "0.9007199254740993",
		"0.012073605787009", "0.00725481309928", "0.020750199444592", "8388608.5", "8388609.5", "16777217.0", "33554434.0",
		"00.5", "01.5", "-01.5", "1.", "-.5", "0.e1", "1.5.5", "--0.5", "-", "0", "-0", "7", "123",
	} {
		checkParseFloat32(t, s)
		checkParseFloat32Tail(t, s, ",98765432109876543210987,]")
	}
}

// TestParseFloat32Midpoints sweeps decimals that land on or next to a
// float32 rounding midpoint once rounded to float64 — where rounding twice
// goes wrong — and every float32's own shortest spelling in a stride.
func TestParseFloat32Midpoints(t *testing.T) {
	for _, s := range float32Seeds {
		checkParseFloat32(t, s)
	}
	for bits := uint32(0x00800000); bits < 0x7f800000; bits += 0x000fff1 * 13 {
		lo := math.Float32frombits(bits)
		mid := (float64(lo) + float64(math.Float32frombits(bits+1))) / 2
		for _, prec := range []int{9, 12, 15, 17} {
			checkParseFloat32(t, strconv.FormatFloat(mid, 'e', prec, 64))
			checkParseFloat32(t, strconv.FormatFloat(mid, 'g', prec, 64))
		}
		checkParseFloat32(t, strconv.FormatFloat(float64(lo), 'g', -1, 32))
		checkParseFloat32(t, strconv.FormatFloat(float64(lo), 'f', -1, 32))
	}
	// Exact midpoints with few digits: k + 0.5 just above 2^23.
	for k := 1 << 23; k < 1<<23+64; k++ {
		checkParseFloat32(t, strconv.Itoa(k)+".5")
		checkParseFloat32(t, strconv.Itoa(2*k+1))
		checkParseFloat32(t, strconv.Itoa(2*k+1)+"e-1")
	}
}

// BenchmarkDecodeInferRequest decodes the serve_squeezenet_c2 body shape
// (1×3×128×128 fp32, ~534 KiB): through json.Unmarshal as API callers and
// the committed benchmark's serve.decode_us do (encoding/json scans an
// Unmarshaler's value twice before handing it over, ~4.7 ms of that row),
// and directly as handleInfer does. The handler also decodes the longest
// serve_transformer_c2 body (1×16×32 fp32) and an INT8 body of integers
// (1×3×128×128), which the parser's fast path leaves to its general code.
func BenchmarkDecodeInferRequest(b *testing.B) {
	body := func(it InferTensor) []byte {
		body, err := json.Marshal(&InferRequest{Inputs: []InferTensor{it}})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	squeezenet := body(EncodeTensor("data", tensor.NewRandom(1, 1, 1, 3, 128, 128)))
	quantized := InferTensor{Name: "data", Shape: []int{1, 3, 128, 128}, Datatype: DatatypeINT8, Scale: 0.05,
		Data: make([]float32, 3*128*128)}
	r := tensor.NewRNG(1)
	for i := range quantized.Data {
		quantized.Data[i] = float32(r.Intn(255) - 127)
	}
	for _, c := range []struct {
		name    string
		body    []byte
		numbers int
		decode  func([]byte, *InferRequest) error
	}{
		{"json.Unmarshal", squeezenet, 3 * 128 * 128, func(body []byte, req *InferRequest) error { return json.Unmarshal(body, req) }},
		{"handler", squeezenet, 3 * 128 * 128, decodeInferRequest},
		{"transformer", body(EncodeTensor("data", tensor.NewRandom(1, 1, 1, 16, 32))), 16 * 32, decodeInferRequest},
		{"int8", body(quantized), 3 * 128 * 128, decodeInferRequest},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			var req InferRequest // escapes through c.decode; the handler's stays on its stack
			for b.Loop() {
				req = InferRequest{}
				if err := c.decode(c.body, &req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.numbers), "ns/number")
		})
	}
}
