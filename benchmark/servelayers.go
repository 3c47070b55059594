package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mnn"
	"mnn/serve"
	"mnn/serve/mesh"
)

// serveLayers takes one request apart on a live server: the HTTP round trip
// of a single client against the same request's stages called directly
// (decode, Model.InferWith, encode), in turn within one loop so host drift
// hits every stage alike. What the round trip costs beyond its stages is
// serve.http_overhead_us. Then two direct callers price admission queueing
// and the batcher, and one client prices a mesh.Router hop.
func (p *layerPass) serveLayers() (err error) {
	fx, ctx := p.fx, context.Background()
	sys, err := openServeSystem(fx)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sys.close(); err == nil {
			err = cerr
		}
	}()
	m, err := sys.reg.Get(modelName)
	if err != nil {
		return err
	}
	client := sys.clients[0]
	url := inferURL(sys.baseURL)

	var rtt, decode, inferWith, engineInfer, encode, bodyKiB, respKiB []float64
	deadline := time.Now().Add(p.share(0.20))
	for i := 0; time.Now().Before(deadline) || i < 3*len(fx.cases); i++ {
		idx := i % len(fx.cases)
		c := &fx.cases[idx]
		p.opID++
		root := p.tr.add(p.opID, "bench", "op", time.Now(), time.Now(), -1)
		var err error
		rtt = append(rtt, us(p.tr.timed(p.opID, "serve", "HTTP POST infer", root, func() { err = client.post(url, c.body) })))
		if err != nil {
			return err
		}
		p.note(client.check(fx, idx) == nil)
		bodyKiB = append(bodyKiB, float64(len(c.body))/1024)
		respKiB = append(respKiB, float64(client.buf.Len())/1024)

		var req serve.InferRequest
		var inputs, outs, direct map[string]*mnn.Tensor
		decode = append(decode, us(p.tr.timed(p.opID, "serve", "json.Unmarshal+DecodeInputs", root, func() {
			if err = json.Unmarshal(c.body, &req); err == nil {
				inputs, err = req.DecodeInputs()
			}
		})))
		if err != nil {
			return err
		}
		var info serve.InferInfo
		inferWith = append(inferWith, us(p.tr.timed(p.opID, "serve", "Model.InferWith", root, func() {
			outs, info, err = m.InferWith(ctx, inputs, m.DefaultPriority())
		})))
		if err != nil {
			return err
		}
		engineInfer = append(engineInfer, us(p.tr.timed(p.opID, "mnn", "Engine.Infer", root, func() {
			direct, err = m.Engine().Infer(ctx, inputs)
		})))
		if err != nil {
			return err
		}
		p.note(sameBits(c.want, outs) && sameBits(c.want, direct))
		encode = append(encode, us(p.tr.timed(p.opID, "serve", "EncodeOutputs+json.Marshal", root, func() {
			var resp *serve.InferResponse
			if resp, err = req.EncodeOutputs(m.Name(), m.OutputNames(), outs); err == nil {
				resp.Precision = info.Precision
				_, err = json.Marshal(resp)
			}
		})))
		if err != nil {
			return err
		}
		p.tr.closeAt(root, time.Now())
	}
	p.m["serve.http_rtt_us"] = median(rtt)
	p.m["serve.decode_us"] = median(decode)
	p.m["serve.infer_with_us"] = median(inferWith)
	p.m["serve.engine_infer_us"] = median(engineInfer)
	p.m["serve.model_overhead_us"] = median(inferWith) - median(engineInfer)
	p.m["serve.encode_us"] = median(encode)
	p.m["serve.http_overhead_us"] = median(rtt) - median(decode) - median(inferWith) - median(encode)
	p.m["serve.body_kib"] = mean(bodyKiB)
	p.m["serve.resp_kib"] = mean(respKiB)

	// Heap bytes one request costs the process (server and client side; in
	// one process they cannot be told apart).
	allocReqs := max(6, min(200, int(p.share(0.04).Seconds()*1e6/median(rtt))))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocReqs; i++ {
		if err := client.post(url, fx.cases[i%len(fx.cases)].body); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	p.m["serve.alloc_kib_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(allocReqs) / 1024

	// Two direct callers, as many as the workload has clients: admission
	// queueing, and what the batcher adds over an unbatched twin.
	callers := fx.w.srv.clients
	batchedP50, waits, err := p.inferWithLoop(m, callers, p.share(0.05))
	if err != nil {
		return err
	}
	p.m["admission.queue_wait_p50_us"] = median(waits)
	if m.Batching() {
		if err := sys.reg.Load("twin", fx.modelConfig(false)); err != nil {
			return err
		}
		twin, err := sys.reg.Get("twin")
		if err != nil {
			return err
		}
		twinP50, _, err := p.inferWithLoop(twin, callers, p.share(0.05))
		if err != nil {
			return err
		}
		p.m["serve.batch_cost_us"] = batchedP50 - twinP50
		p.d["serve.infer_with_c2_us"], p.d["serve.infer_with_c2_twin_us"] = batchedP50, twinP50
		if err := sys.reg.Unload("twin"); err != nil {
			return err
		}
	}
	if fx.w.srv.mesh {
		if err := p.meshLayer(sys, client); err != nil {
			return err
		}
	}

	p.m["admission.shed"] = float64(m.AdmissionStats().Shed())
	if m.Batching() {
		p.m["serve.batch_flushes"], p.m["serve.batch_fill_ratio"], err = batchCounters(sys.reg, m.Ref())
	}
	return err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// inferWithLoop runs `callers` closed loops on Model.InferWith for d and
// returns the median call time in µs and every admission queue wait in µs.
func (p *layerPass) inferWithLoop(m *serve.Model, callers int, d time.Duration) (float64, []float64, error) {
	fx, ctx := p.fx, context.Background()
	type perCaller struct {
		lat, wait []float64
		bad       int
		err       error
	}
	res := make([]perCaller, callers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for i := c; time.Now().Before(deadline) || len(r.lat) < 3; i++ {
				cs := &fx.cases[i%len(fx.cases)]
				t0 := time.Now()
				out, info, err := m.InferWith(ctx, cs.in, m.DefaultPriority())
				r.lat = append(r.lat, us(time.Since(t0)))
				if err != nil {
					r.err = err
					return
				}
				r.wait = append(r.wait, us(info.QueueWait))
				if !sameBits(cs.want, out) {
					r.bad++
				}
			}
		}(c)
	}
	wg.Wait()
	var lat, wait []float64
	for _, r := range res {
		if r.err != nil {
			return 0, nil, r.err
		}
		lat, wait = append(lat, r.lat...), append(wait, r.wait...)
		p.res.Attempted += len(r.lat)
		p.res.Failed += r.bad
	}
	return median(lat), wait, nil
}

// meshLayer prices one mesh.Router hop: the same client alternates between
// the server and an in-process router in front of it.
func (p *layerPass) meshLayer(sys *serveSystem, client *serveClient) error {
	fx := p.fx
	router, err := mesh.New(mesh.Config{Replicas: []string{sys.baseURL}})
	if err != nil {
		return err
	}
	defer router.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: router.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	defer func() {
		client.http.CloseIdleConnections()
		hs.Shutdown(context.Background())
		<-served
	}()
	direct, routed := inferURL(sys.baseURL), inferURL("http://"+l.Addr().String())
	var dRTT, rRTT []float64
	deadline := time.Now().Add(p.share(0.08))
	for i := 0; time.Now().Before(deadline) || i < 3*len(fx.cases); i++ {
		idx := i % len(fx.cases)
		for _, leg := range []struct {
			url  string
			name string
			into *[]float64
		}{{direct, "HTTP POST infer", &dRTT}, {routed, "HTTP POST infer via mesh.Router", &rRTT}} {
			var err error
			p.opID++
			*leg.into = append(*leg.into, us(p.tr.timed(p.opID, "mesh", leg.name, -1, func() { err = client.post(leg.url, fx.cases[idx].body) })))
			if err != nil {
				return err
			}
			p.note(client.check(fx, idx) == nil)
		}
	}
	p.m["mesh.hop_overhead_us"] = median(rRTT) - median(dRTT)
	return nil
}

// batchCounters reads a model's batch flush count and cumulative fill ratio
// (batched requests ÷ (flushes × max batch)) from the registry's Prometheus
// text, the only reading the registry offers.
func batchCounters(reg *serve.Registry, ref string) (flushes, fill float64, err error) {
	var buf bytes.Buffer
	if err := reg.Metrics().WriteText(&buf); err != nil {
		return 0, 0, err
	}
	series := map[string]*float64{
		fmt.Sprintf("mnn_batch_flushes_total{model=%q}", ref): &flushes,
		fmt.Sprintf("mnn_batch_fill_ratio{model=%q}", ref):    &fill,
	}
	found := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		if dst := series[name]; dst != nil {
			if *dst, err = strconv.ParseFloat(val, 64); err != nil {
				return 0, 0, err
			}
			found++
		}
	}
	if found != len(series) {
		return 0, 0, errors.New("batch counters missing from the registry's metrics")
	}
	return flushes, fill, nil
}
