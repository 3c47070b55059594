package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"mnn/serve/admission"
)

// specCases covers every -model key and the -model values CI serves with.
// Each spec must parse to req, and its JSON twin must decode to the same
// request.
var specCases = []struct {
	spec, name string
	req        LoadRequest
	json       string
}{
	{"mobilenet-v1", "mobilenet-v1", LoadRequest{Model: "mobilenet-v1"},
		`{"model":"mobilenet-v1"}`},
	{"m=mobilenet-v1,pool=4,threads=2", "m",
		LoadRequest{Model: "mobilenet-v1", Options: LoadOptions{PoolSize: 4, Threads: 2}},
		`{"model":"mobilenet-v1","options":{"pool_size":4,"threads":2}}`},
	{"m=squeezenet-v1.1,forward=cpu,device=Mate20,precision=int8", "m",
		LoadRequest{Model: "squeezenet-v1.1", Options: LoadOptions{Forward: "cpu", Device: "Mate20", Precision: "int8"}},
		`{"model":"squeezenet-v1.1","options":{"forward":"cpu","device":"Mate20","precision":"int8"}}`},
	{"m=squeezenet-v1.1,tuning=measured,tuningcache=sq.tuning.json,maxbatch=4", "m",
		LoadRequest{Model: "squeezenet-v1.1", MaxBatch: 4, Options: LoadOptions{Tuning: "measured", TuningCache: "sq.tuning.json"}},
		`{"model":"squeezenet-v1.1","options":{"tuning":"measured","tuning_cache":"sq.tuning.json"},"max_batch":4}`},
	{"det=det.mnng,shape=data:1x3x320x320,shape=mask:1x320,shape=data:1x3x64x64", "det",
		LoadRequest{Model: "det.mnng", Options: LoadOptions{InputShapes: map[string][]int{"data": {1, 3, 64, 64}, "mask": {1, 320}}}},
		`{"model":"det.mnng","options":{"input_shapes":{"data":[1,3,64,64],"mask":[1,320]}}}`},
	{"tf=transformer,maxshape=tokens:1x16x32,maxbatch=4,maxlatency=1001us,buckets=3", "tf",
		LoadRequest{Model: "transformer", MaxBatch: 4, MaxLatencyMs: 1.001, Buckets: 3,
			Options: LoadOptions{MaxInputShapes: map[string][]int{"tokens": {1, 16, 32}}}},
		`{"model":"transformer","options":{"max_input_shapes":{"tokens":[1,16,32]}},"max_batch":4,"max_latency_ms":1.001,"buckets":3}`},
	{"m=mobilenet-v1,queue=32,concurrency=2,slo=100ms,priority=batch,degrade=int8", "m",
		LoadRequest{Model: "mobilenet-v1", Queue: 32, Concurrency: 2, SLOMs: 100, Priority: "batch", Degrade: "int8"},
		`{"model":"mobilenet-v1","queue":32,"concurrency":2,"slo_ms":100,"priority":"batch","degrade":"int8"}`},
	{"resnet=mobilenet-v1,version=2,default=true,lazy=true", "resnet",
		LoadRequest{Model: "mobilenet-v1", Version: "2", Default: true, Lazy: true},
		`{"model":"mobilenet-v1","version":"2","default":true,"lazy":true}`},
	// The specs CI's server, metrics and mesh smokes pass.
	{"sq=squeezenet-v1.1,shape=data:1x3x64x64,maxbatch=2", "sq",
		LoadRequest{Model: "squeezenet-v1.1", MaxBatch: 2, Options: LoadOptions{InputShapes: map[string][]int{"data": {1, 3, 64, 64}}}},
		`{"model":"squeezenet-v1.1","options":{"input_shapes":{"data":[1,3,64,64]}},"max_batch":2}`},
	{"hot=mobilenet-v1,shape=data:1x3x96x96,pool=1,threads=1,queue=2,slo=250ms", "hot",
		LoadRequest{Model: "mobilenet-v1", Queue: 2, SLOMs: 250,
			Options: LoadOptions{PoolSize: 1, Threads: 1, InputShapes: map[string][]int{"data": {1, 3, 96, 96}}}},
		`{"model":"mobilenet-v1","options":{"pool_size":1,"threads":1,"input_shapes":{"data":[1,3,96,96]}},"queue":2,"slo_ms":250}`},
	{"calm=squeezenet-v1.1,shape=data:1x3x64x64", "calm",
		LoadRequest{Model: "squeezenet-v1.1", Options: LoadOptions{InputShapes: map[string][]int{"data": {1, 3, 64, 64}}}},
		`{"model":"squeezenet-v1.1","options":{"input_shapes":{"data":[1,3,64,64]}}}`},
	{"m0=squeezenet-v1.1,shape=data:1x3x64x64,pool=1", "m0",
		LoadRequest{Model: "squeezenet-v1.1", Options: LoadOptions{PoolSize: 1, InputShapes: map[string][]int{"data": {1, 3, 64, 64}}}},
		`{"model":"squeezenet-v1.1","options":{"pool_size":1,"input_shapes":{"data":[1,3,64,64]}}}`},
}

// specTags returns the spec tag of every LoadRequest and LoadOptions field,
// and the names of the fields without one.
func specTags() (tags, untagged []string) {
	for _, t := range []reflect.Type{reflect.TypeOf(LoadRequest{}), reflect.TypeOf(LoadOptions{})} {
		for i := range t.NumField() {
			f := t.Field(i)
			if f.Type.Kind() == reflect.Struct {
				continue // Options: its fields are walked in turn
			}
			tag, _, _ := strings.Cut(f.Tag.Get("spec"), ",")
			if tag == "" {
				untagged = append(untagged, f.Name)
				continue
			}
			tags = append(tags, tag)
		}
	}
	return tags, untagged
}

// TestParseModelSpecParity: the -model grammar and the repository API's JSON
// describe one LoadRequest, and both give the same registry load.
func TestParseModelSpecParity(t *testing.T) {
	used := map[string]bool{}
	for _, tc := range specCases {
		name, req, err := ParseModelSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseModelSpec(%q): %v", tc.spec, err)
			continue
		}
		if name != tc.name || !reflect.DeepEqual(req, tc.req) {
			t.Errorf("ParseModelSpec(%q) = %q, %+v; want %q, %+v", tc.spec, name, req, tc.name, tc.req)
		}
		var wire LoadRequest
		if err := json.Unmarshal([]byte(tc.json), &wire); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wire, tc.req) {
			t.Errorf("%s decodes to %+v, want %+v", tc.json, wire, tc.req)
		}
		for _, kv := range strings.Split(tc.spec, ",")[1:] {
			key, _, _ := strings.Cut(kv, "=")
			used[key] = true
		}
	}
	tags, _ := specTags()
	for _, tag := range tags {
		if !used[tag] {
			t.Errorf("no parity case uses -model key %q", tag)
		}
	}

	// Both forms convert to the same registry load. Milliseconds convert by
	// rounding: 1.001 ms truncated is 1.000999 ms.
	_, req, err := ParseModelSpec("tf=transformer,maxbatch=4,maxlatency=1001us,buckets=3," +
		"queue=8,concurrency=2,slo=1001us,priority=batch,degrade=int8,lazy=true")
	if err != nil {
		t.Fatal(err)
	}
	var wire LoadRequest
	if err := json.Unmarshal([]byte(`{"model":"transformer","max_batch":4,"max_latency_ms":1.001,"buckets":3,`+
		`"queue":8,"concurrency":2,"slo_ms":1.001,"priority":"batch","degrade":"int8","lazy":true}`), &wire); err != nil {
		t.Fatal(err)
	}
	wantBatch := BatchConfig{MaxBatch: 4, MaxLatency: 1001 * time.Microsecond, Buckets: 3}
	wantAdm := AdmissionConfig{Queue: 8, Concurrency: 2, SLO: 1001 * time.Microsecond,
		DefaultPriority: admission.Batch, Degrade: "int8"}
	for _, r := range []LoadRequest{req, wire} {
		cfg, err := r.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Model != "transformer" || cfg.Batch != wantBatch || cfg.Admission != wantAdm || !cfg.Lazy {
			t.Errorf("%+v converts to %+v, want batch %+v, admission %+v, lazy", r, cfg, wantBatch, wantAdm)
		}
	}
}

// TestSpecTagsCoverLoadRequest: every field of a load but the model source
// has exactly one -model key, so the grammar cannot drift from the wire.
func TestSpecTagsCoverLoadRequest(t *testing.T) {
	tags, untagged := specTags()
	if !reflect.DeepEqual(untagged, []string{"Model"}) {
		t.Errorf("fields without a spec tag: %v, want only Model", untagged)
	}
	seen := map[string]bool{}
	for _, tag := range tags {
		if seen[tag] {
			t.Errorf("spec tag %q is on two fields", tag)
		}
		seen[tag] = true
	}
	if len(tags) != 20 {
		t.Errorf("%d -model keys, want 20", len(tags))
	}
}

// TestParseModelSpecRejects: a malformed spec fails to parse, and a
// well-formed one with a bad value fails to convert.
func TestParseModelSpecRejects(t *testing.T) {
	for _, spec := range []string{
		"", "=x", "m=", ",pool=1",
		"m=x,pool", "m=x,pool=a", "m=x,threads=1.5", "m=x,maxbatch=", "m=x,buckets=b",
		"m=x,queue=q", "m=x,concurrency=c", "m=x,nokey=1", "m=x,Pool=1",
		"m=x,maxlatency=5", "m=x,slo=fast",
		"m=x,version=", "m=x,version=1:2", "m=x,version=1:2,version=2", "m=x,priority=urgent,priority=high",
		"m=x,default=maybe", "m=x,lazy=2x",
		"m=x,shape=data", "m=x,shape=data:1xa", "m=x,maxshape=data:", "m=x,shape=data:1x3,",
	} {
		if _, _, err := ParseModelSpec(spec); err == nil {
			t.Errorf("ParseModelSpec(%q): no error", spec)
		}
	}
	for _, spec := range []string{
		"m=x,forward=quantum", "m=x,forward=cpu,forward=quantum", "m=x,precision=int4",
		"m=x,tuning=quantum", "m=x,tuning=measured,maxbatch=2",
		"m=x,shape=data:1x3,maxshape=data:1x3",
	} {
		_, req, err := ParseModelSpec(spec)
		if err != nil {
			t.Errorf("ParseModelSpec(%q): %v", spec, err)
			continue
		}
		if _, err := req.Config(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Config of %q: got %v, want ErrBadRequest", spec, err)
		}
	}
	// The operator may pair measured tuning and batching by naming the
	// shared cache.
	_, req, err := ParseModelSpec("m=x,tuning=measured,maxbatch=2,tuningcache=x.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := req.Config(); err != nil {
		t.Errorf("measured tuning with batching and a cache: %v", err)
	}
}

// TestLoadVersionWithColon: a body version holding ':' is refused with 400
// instead of loading a model named after part of it.
func TestLoadVersionWithColon(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	rec := httptest.NewRecorder()
	NewServer(reg).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/v2/repository/models/m/load", strings.NewReader(`{"model":"squeezenet-v1.1","version":"1:2"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("load with version 1:2 = %d %s, want 400", rec.Code, rec.Body)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("registered %v, want nothing", names)
	}
}

// FuzzParseModelSpec: the parser never panics, every accepted spec is a
// request the repository API can carry unchanged, and converting it either
// succeeds or fails as a bad request.
func FuzzParseModelSpec(f *testing.F) {
	for _, tc := range specCases {
		f.Add(tc.spec)
	}
	for _, spec := range []string{
		"m=x,version=1:2", "m=x,maxlatency=-3ms,slo=2562047h47m16.854775807s",
		"m=x,shape=:,maxshape=a:b", "=,=,=", "m=x,pool=-9223372036854775808",
		"m=x,shape=data:1x3,maxshape=data:1x3", "m=x,tuning=measured,maxbatch=2",
		"m=x,priority=urgent,forward=gpu,device=ghost", "m=x,shape=\x00:0,degrade=<&>",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		_, req, err := ParseModelSpec(spec)
		if err != nil {
			return
		}
		// JSON strings are UTF-8: a spec holding other bytes (a raw path,
		// say) has no wire twin.
		if utf8.ValidString(spec) {
			blob, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			var back LoadRequest
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, req) {
				t.Fatalf("%q: %+v round-trips to %+v", spec, req, back)
			}
		}
		if _, err := req.Config(); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%q: Config: %v, want nil or ErrBadRequest", spec, err)
		}
	})
}
