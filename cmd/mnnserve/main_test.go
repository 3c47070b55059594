package main

import (
	"strings"
	"testing"
	"time"

	"mnn/serve"
)

// TestCheckSpecsRejectsDuplicates: two -model flags naming the same
// name:version must fail fast instead of silently hot-swapping, and the
// error must name the offender.
func TestCheckSpecsRejectsDuplicates(t *testing.T) {
	mk := func(v string) modelSpec {
		t.Helper()
		name, req, err := serve.ParseModelSpec(v)
		if err != nil {
			t.Fatalf("ParseModelSpec(%q): %v", v, err)
		}
		return modelSpec{name, req}
	}
	cases := []struct {
		name    string
		specs   []modelSpec
		wantErr string // substring; empty = no error
	}{
		{"distinct names", []modelSpec{mk("a=mobilenet-v1"), mk("b=squeezenet-v1.1")}, ""},
		{"same name", []modelSpec{mk("m=mobilenet-v1"), mk("m=squeezenet-v1.1")}, `"m:1"`},
		{"same name same version", []modelSpec{mk("m=mobilenet-v1,version=2"), mk("m=squeezenet-v1.1,version=2")}, `"m:2"`},
		{"same name distinct versions", []modelSpec{mk("m=mobilenet-v1,version=1"), mk("m=mobilenet-v1,version=2")}, ""},
		{"explicit version 1 collides with implicit", []modelSpec{mk("m=mobilenet-v1"), mk("m=mobilenet-v1,version=1")}, `"m:1"`},
	}
	for _, tc := range cases {
		err := checkSpecs(tc.specs)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: no error, want one mentioning %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name the duplicate %s", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseModelSpecVersionKeys(t *testing.T) {
	s, cfg, err := parseAndConfig("m=mobilenet-v1,version=3,default=true,lazy=true,queue=4,slo=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if s.ref() != "m:3" {
		t.Errorf("ref %q, want m:3", s.ref())
	}
	if !s.req.Default || !cfg.Lazy {
		t.Errorf("setDefault=%v lazy=%v, want both true", s.req.Default, cfg.Lazy)
	}
	if cfg.Admission.Queue != 4 || cfg.Admission.SLO != 50*time.Millisecond {
		t.Errorf("admission %+v not carried through", cfg.Admission)
	}
	for _, bad := range []string{
		"m=x,version=",
		"m=x,version=1:2",
		"m=x,default=maybe",
		"m=x,lazy=2x",
	} {
		if _, _, err := parseAndConfig(bad); err == nil {
			t.Errorf("parseAndConfig(%q): no error", bad)
		}
	}
}

// TestModelSpecGlobalDefaults: -max-batch, -max-latency and -max-buckets
// fill only the batching knobs a spec leaves unset, so a per-model
// maxbatch= still takes the global -max-latency.
func TestModelSpecGlobalDefaults(t *testing.T) {
	cases := []struct {
		spec string
		want serve.BatchConfig
	}{
		{"m=x", serve.BatchConfig{MaxBatch: 4, MaxLatency: 1001 * time.Microsecond, Buckets: 3}},
		{"m=x,maxbatch=2", serve.BatchConfig{MaxBatch: 2, MaxLatency: 1001 * time.Microsecond, Buckets: 3}},
		{"m=x,maxlatency=5ms,buckets=1", serve.BatchConfig{MaxBatch: 4, MaxLatency: 5 * time.Millisecond, Buckets: 1}},
	}
	for _, tc := range cases {
		name, req, err := serve.ParseModelSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		s := modelSpec{name, req}
		cfg, err := s.config(4, 1001*time.Microsecond, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if cfg.Batch != tc.want {
			t.Errorf("%s: batch %+v, want %+v", tc.spec, cfg.Batch, tc.want)
		}
	}
}

// parseAndConfig runs a -model value through what main does with it: parse
// at flag time, then convert with no global defaults.
func parseAndConfig(v string) (modelSpec, serve.ModelConfig, error) {
	name, req, err := serve.ParseModelSpec(v)
	if err != nil {
		return modelSpec{}, serve.ModelConfig{}, err
	}
	s := modelSpec{name, req}
	cfg, err := s.config(0, 0, 0)
	return s, cfg, err
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"1024", 1024},
		{"64KiB", 64 << 10},
		{"512MiB", 512 << 20},
		{"1GiB", 1 << 30},
		{"1.5GiB", 3 << 29},
		{"2GB", 2e9},
		{"100B", 100},
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if err != nil {
			t.Errorf("parseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "MiB", "-1", "many", "NaN", "Inf", "1e30"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q): no error", bad)
		}
	}
}
