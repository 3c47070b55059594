package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"mnn"
	"mnn/serve"
)

// system is one set-up instance of what a workload measures: an engine, or
// a server with its clients.
type system interface {
	// op runs one client's i-th closed-loop operation and fails if the
	// call fails or the output is not the gated one.
	op(client, i int) error
	residentBytes() int64
	close() error
}

// open performs one complete cold set-up from the model bytes.
func (fx *fixture) open() (system, error) {
	if fx.w.srv != nil {
		return openServeSystem(fx)
	}
	return openEngineSystem(fx)
}

var errWrongOutput = errors.New("output differs from the gated output")

// engineSystem is one caller on Engine.InferInto. One operation runs every
// shape of the workload once (a single inference for the CNNs, the length
// sweep for the transformer).
type engineSystem struct {
	fx  *fixture
	eng *mnn.Engine
	out []map[string]*mnn.Tensor // per case: InferInto's destination
}

func openEngineSystem(fx *fixture) (*engineSystem, error) {
	g, err := mnn.LoadGraph(bytes.NewReader(fx.model))
	if err != nil {
		return nil, err
	}
	eng, err := mnn.Open(g, fx.w.engineOptions(fx.input, fx.w.shape, fx.w.threads, 1)...)
	if err != nil {
		return nil, err
	}
	return &engineSystem{fx: fx, eng: eng, out: fx.newOutputs()}, nil
}

func (s *engineSystem) op(_, i int) error {
	return s.fx.sweep(i, func(idx int) error {
		c := &s.fx.cases[idx]
		if err := s.eng.InferInto(context.Background(), c.in, s.out[idx]); err != nil {
			return err
		}
		if !sameBits(c.want, s.out[idx]) {
			return errWrongOutput
		}
		return nil
	})
}

func (s *engineSystem) residentBytes() int64 { return s.eng.MemoryBytes() }
func (s *engineSystem) close() error         { return s.eng.Close() }

// modelName is the registry name the serve workloads load their model under.
const modelName = "m"

// serveSystem is an in-process serve.Server on a loopback port with
// keep-alive HTTP clients in front of it.
type serveSystem struct {
	fx      *fixture
	reg     *serve.Registry
	srv     *serve.Server
	served  chan error
	baseURL string
	clients []*serveClient
}

// serveClient is one closed-loop HTTP caller. seq is its seeded order over
// the cases (every case equally often, so the three transformer lengths get
// equal thirds); seen holds, per case, the response body that was decoded
// and found bit-equal to the gated output, so later responses are checked
// by comparing bytes.
type serveClient struct {
	http *http.Client
	seq  []int
	seen [][]byte
	buf  bytes.Buffer
}

// modelConfig is the serve.ModelConfig of the workload; batched selects
// whether the workload's batching is kept (the per-layer pass loads an
// unbatched twin to price the batcher).
func (fx *fixture) modelConfig(batched bool) serve.ModelConfig {
	sp := fx.w.srv
	cfg := serve.ModelConfig{
		Model:     bytes.NewReader(fx.model),
		Options:   fx.w.engineOptions(fx.input, fx.w.shape, fx.w.threads, sp.pool),
		Admission: serve.AdmissionConfig{Queue: sp.queue},
	}
	if batched {
		cfg.Batch = sp.batch
	}
	return cfg
}

func openServeSystem(fx *fixture) (*serveSystem, error) {
	reg := serve.NewRegistry()
	if err := reg.Load(modelName, fx.modelConfig(true)); err != nil {
		reg.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &serveSystem{fx: fx, reg: reg, srv: serve.NewServer(reg), served: make(chan error, 1),
		baseURL: "http://" + l.Addr().String()}
	go func() { s.served <- s.srv.Serve(l) }()
	for c := 0; c < fx.w.srv.clients; c++ {
		s.clients = append(s.clients, newServeClient(fx, c))
	}
	return s, nil
}

func newServeClient(fx *fixture, c int) *serveClient {
	const rounds = 64
	seq := make([]int, 0, rounds*len(fx.cases))
	for r := 0; r < rounds; r++ {
		for i := range fx.cases {
			seq = append(seq, i)
		}
	}
	rng := rand.New(rand.NewPCG(fx.seed, uint64(c)))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return &serveClient{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		seq:  seq,
		seen: make([][]byte, len(fx.cases)),
	}
}

// inferURL is the protocol's inference route below a server or router base.
func inferURL(base string) string { return base + "/v2/models/" + modelName + "/infer" }

// post sends one request and leaves the response body in c.buf.
func (c *serveClient) post(url string, body []byte) error {
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

// check compares the response in c.buf with the gated output of case idx:
// the first response for a case is decoded and compared bit for bit, later
// ones must repeat those bytes.
func (c *serveClient) check(fx *fixture, idx int) error {
	if c.seen[idx] != nil {
		if !bytes.Equal(c.buf.Bytes(), c.seen[idx]) {
			return errWrongOutput
		}
		return nil
	}
	var resp serve.InferResponse
	if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil {
		return err
	}
	got := map[string]*mnn.Tensor{}
	for _, it := range resp.Outputs {
		t, err := it.DecodeTensor()
		if err != nil {
			return err
		}
		got[it.Name] = t
	}
	if !sameBits(fx.cases[idx].want, got) {
		return errWrongOutput
	}
	c.seen[idx] = bytes.Clone(c.buf.Bytes())
	return nil
}

func (s *serveSystem) op(client, i int) error {
	c := s.clients[client]
	idx := c.seq[i%len(c.seq)]
	if err := c.post(inferURL(s.baseURL), s.fx.cases[idx].body); err != nil {
		return err
	}
	return c.check(s.fx, idx)
}

func (s *serveSystem) residentBytes() int64 { return s.reg.ResidentBytes() }

// close drains the server (which closes the registry) and waits for the
// serving goroutine and the clients' connections to end.
func (s *serveSystem) close() error {
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil && !errors.Is(serr, serve.ErrServerClosed) && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// driveResult is what one closed-loop phase observed.
type driveResult struct {
	latencies []time.Duration // one per operation, failed ones included
	failed    int
	firstErr  error
	wall      time.Duration
	// callerTime is, summed over the callers, the time from the start to the
	// caller's last completion.
	callerTime time.Duration
}

// drive runs `clients` closed loops against sys for d, each continuing its
// operation count from `from`, and returns what they saw plus the next
// operation count to continue from.
func drive(sys system, clients int, d time.Duration, from int) (driveResult, int) {
	type perClient struct {
		lat    []time.Duration
		last   time.Duration // offset of the last completion
		failed int
		err    error
		next   int
	}
	res := make([]perClient, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			// Room for a sub-millisecond workload's whole phase, so that
			// the measured loop does not stop to grow its own records.
			r.lat = make([]time.Duration, 0, int(d/(100*time.Microsecond))+16)
			i := from
			for ; time.Since(start) < d; i++ {
				t0 := time.Now()
				err := sys.op(c, i)
				t1 := time.Now()
				r.lat = append(r.lat, t1.Sub(t0))
				r.last = t1.Sub(start)
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
				}
			}
			r.next = i
		}(c)
	}
	wg.Wait()
	out := driveResult{wall: time.Since(start)}
	next := from
	for _, r := range res {
		out.latencies = append(out.latencies, r.lat...)
		out.failed += r.failed
		out.callerTime += r.last
		if out.firstErr == nil {
			out.firstErr = r.err
		}
		next = max(next, r.next)
	}
	return out, next
}
