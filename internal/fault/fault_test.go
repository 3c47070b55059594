package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "engine.infer=panic,after=10,count=3,match=mobilenet;" +
		"mesh.transport=latency:50ms,p=0.2;" +
		"tuner.cache.write=torn,count=1"
	p, err := ParsePlan(42, spec)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 42 || len(p.Rules) != 3 {
		t.Fatalf("got seed=%d rules=%d", p.Seed, len(p.Rules))
	}
	r := p.Rules[0]
	if r.Site != SiteEngineInfer || r.Mode != ModePanic || r.After != 10 || r.Count != 3 || r.Match != "mobilenet" {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	if p.Rules[1].Latency != 50*time.Millisecond || p.Rules[1].Prob != 0.2 {
		t.Fatalf("rule 1 parsed wrong: %+v", p.Rules[1])
	}
	// String() must re-parse to the same plan.
	p2, err := ParsePlan(42, p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip: %q != %q", p2.String(), p.String())
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"",
		"nonsense",
		"bogus.site=error",
		"engine.infer=connreset",     // mode not legal at site
		"engine.infer=latency",       // latency mode without duration
		"engine.infer=error,p=1.5",   // probability out of range
		"engine.infer=error,every=x", // non-integer
		"engine.infer=error,zzz=1",   // unknown param
		"tuner.cache.read=torn",      // torn only on write
	}
	for _, spec := range bad {
		if _, err := ParsePlan(1, spec); err == nil {
			t.Errorf("ParsePlan(%q) unexpectedly succeeded", spec)
		}
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if o := in.Hit(SiteEngineInfer, "anything"); o != nil {
		t.Fatalf("nil injector fired: %+v", o)
	}
	if in.Fired(SiteEngineInfer) != 0 {
		t.Fatal("nil injector reported firings")
	}
	if NewInjector(nil) != nil {
		t.Fatal("NewInjector(nil) should be nil")
	}
	if NewInjector(&Plan{Seed: 1}) != nil {
		t.Fatal("NewInjector(empty plan) should be nil")
	}
}

func TestAfterEveryCountSemantics(t *testing.T) {
	p, err := ParsePlan(7, "engine.infer=error,after=2,every=3,count=2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	var fired []int
	for i := 1; i <= 20; i++ {
		if o := in.Hit(SiteEngineInfer, "m"); o != nil {
			fired = append(fired, i)
			if !errors.Is(o.Err, ErrInjected) {
				t.Fatalf("outcome error %v does not wrap ErrInjected", o.Err)
			}
		}
	}
	// Hits 1-2 skipped (after=2); then every 3rd eligible hit fires: 5, 8;
	// count=2 stops it there.
	want := []int{5, 8}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	if got := in.Fired(SiteEngineInfer); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestMatchFilter(t *testing.T) {
	p, _ := ParsePlan(1, "session.kernel=error,match=conv")
	in := NewInjector(p)
	if o := in.Hit(SiteSessionKernel, "pool1"); o != nil {
		t.Fatal("fired on non-matching key")
	}
	if o := in.Hit(SiteSessionKernel, "conv2d_3"); o == nil {
		t.Fatal("did not fire on matching key")
	}
}

func TestProbDeterminism(t *testing.T) {
	run := func() []int {
		p, _ := ParsePlan(99, "mesh.transport=connreset,p=0.3")
		in := NewInjector(p)
		var fired []int
		for i := 0; i < 200; i++ {
			if in.Hit(SiteMeshTransport, "replica-a/v2/infer") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("p=0.3 fired %d/200 times; expected a strict subset", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d firings", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at firing %d: hit %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed should (overwhelmingly) produce a different schedule.
	p2, _ := ParsePlan(100, "mesh.transport=connreset,p=0.3")
	in2 := NewInjector(p2)
	var c []int
	for i := 0; i < 200; i++ {
		if in2.Hit(SiteMeshTransport, "replica-a/v2/infer") != nil {
			c = append(c, i)
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical schedules")
	}
}

func TestRuleIndependenceAcrossSites(t *testing.T) {
	// Interleaving hits on another site must not perturb a rule's schedule.
	solo := func() []int {
		p, _ := ParsePlan(5, "engine.infer=error,p=0.5")
		in := NewInjector(p)
		var fired []int
		for i := 0; i < 50; i++ {
			if in.Hit(SiteEngineInfer, "m") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}()
	mixed := func() []int {
		p, _ := ParsePlan(5, "engine.infer=error,p=0.5;mesh.transport=connreset,p=0.5")
		in := NewInjector(p)
		var fired []int
		for i := 0; i < 50; i++ {
			in.Hit(SiteMeshTransport, "x") // interleaved traffic on another rule
			if in.Hit(SiteEngineInfer, "m") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}()
	if len(solo) != len(mixed) {
		t.Fatalf("cross-site interference: %d vs %d firings", len(solo), len(mixed))
	}
	for i := range solo {
		if solo[i] != mixed[i] {
			t.Fatalf("cross-site interference at firing %d", i)
		}
	}
}

func TestApplyError(t *testing.T) {
	p, _ := ParsePlan(1, "registry.load=error")
	in := NewInjector(p)
	o := in.Hit(SiteRegistryLoad, "pre:m:1")
	if o == nil {
		t.Fatal("rule did not fire")
	}
	if err := o.Apply(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Apply = %v, want ErrInjected", err)
	}
	var nilOutcome *Outcome
	if err := nilOutcome.Apply(); err != nil {
		t.Fatalf("nil outcome Apply = %v", err)
	}
}

func TestApplyPanics(t *testing.T) {
	p, _ := ParsePlan(1, "engine.infer=panic")
	in := NewInjector(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Apply did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "engine.infer") {
			t.Fatalf("panic value %v does not name the site", r)
		}
	}()
	in.Hit(SiteEngineInfer, "m").Apply()
}

func TestTransportConnReset(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()

	p, _ := ParsePlan(3, "mesh.transport=connreset,every=2")
	tr := NewTransport(nil, NewInjector(p))
	client := &http.Client{Transport: tr}
	defer client.CloseIdleConnections()

	// every=2: hit 1 passes, hit 2 resets.
	if _, err := client.Get(srv.URL); err != nil {
		t.Fatalf("first request should pass: %v", err)
	}
	if _, err := client.Get(srv.URL); err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("second request: got %v, want injected conn reset", err)
	}
}

func TestTransportTruncate(t *testing.T) {
	body := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer srv.Close()

	p, _ := ParsePlan(3, "mesh.transport=truncate")
	client := &http.Client{Transport: NewTransport(nil, NewInjector(p))}
	defer client.CloseIdleConnections()

	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadAll err = %v, want unexpected EOF", err)
	}
	if len(got) > truncateAfter {
		t.Fatalf("read %d bytes through a truncated body (cap %d)", len(got), truncateAfter)
	}
}

func TestTransportLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	p, _ := ParsePlan(3, "mesh.transport=latency:30ms")
	client := &http.Client{Transport: NewTransport(nil, NewInjector(p))}
	defer client.CloseIdleConnections()

	t0 := time.Now()
	if _, err := client.Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("latency fault not applied: round trip took %v", d)
	}
}
