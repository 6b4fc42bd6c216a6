package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpapi"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	frontHot      = 1024 // hot inputs, fewer than the 4096-entry caches
	frontHotShare = 0.5
	frontToken    = "bench-token"
	frontModel    = "default"
)

// countingListener counts accepted connections: each is one dial by a
// client of the listener.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// httpFront is an http.Server on a loopback listener.
type httpFront struct {
	ln   *countingListener
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{ln: &countingListener{Listener: ln}, hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(f.ln) // returns http.ErrServerClosed on close
	}()
	return f, nil
}

func (f *httpFront) addr() string { return f.ln.Addr().String() }

func (f *httpFront) close() {
	_ = f.hs.Close()
	<-f.done
}

type replica struct {
	srv  *serve.Server
	mon  *monitor.Monitor
	http *httpFront
}

// frontStack is what front-door's set-up builds: two replicas, the
// gateway with the workload's chain and, for the traced ladder, a second
// gateway with an empty chain.
type frontStack struct {
	cp     *service.Checkpoint
	reps   []*replica
	gw     *gateway.Gateway
	gwHTTP *httpFront
	bare   *gateway.Gateway
	bareHT *httpFront
	client *http.Client
	in     *inputs
	warm   *phaseResult // the set-up's pass over the hot set
}

func (s *frontStack) close() {
	for _, g := range []*gateway.Gateway{s.gw, s.bare} {
		if g != nil {
			g.Close()
		}
	}
	for _, f := range []*httpFront{s.gwHTTP, s.bareHT} {
		if f != nil {
			f.close()
		}
	}
	s.client.CloseIdleConnections()
	for _, rp := range s.reps {
		rp.http.close()
		_ = rp.srv.Close()
		rp.mon.Close()
	}
}

func newGateway(addrs []string, chain []string) (*gateway.Gateway, *httpFront, error) {
	// scripts/bench_gateway.sh's configuration, with the default session
	// cache.
	g, err := gateway.New(gateway.Config{
		Models:        map[string][]string{frontModel: addrs},
		Middlewares:   map[string][]string{gateway.RoutePredict: chain, gateway.RouteAdmin: {"logging"}},
		AuthTokens:    []string{frontToken},
		RatePerSecond: 1000000,
		MaxInflight:   512,
		ProbeEveryMs:  200,
		EvictAfter:    2,
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	g.SetTracer(telemetry.NewTracer("gateway", telemetry.DefaultRingSize))
	g.Start()
	f, err := listen(g.Handler())
	if err != nil {
		g.Close()
		return nil, nil, err
	}
	return g, f, nil
}

// setupFront starts the stack and sends every hot input once through the
// gateway, so the session and route caches are warm when timing starts.
func setupFront(r *run, ans *answers) (*frontStack, error) {
	cp, err := loadTiny(r.root)
	if err != nil {
		return nil, err
	}
	s := &frontStack{cp: cp}
	conns := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	var addrs []string
	for k := 0; k < 2; k++ {
		srv, mon, err := newMonitoredServer(cp)
		if err != nil {
			s.close()
			return nil, err
		}
		f, err := listen(srv.Handler())
		if err != nil {
			_ = srv.Close()
			mon.Close()
			s.close()
			return nil, err
		}
		s.reps = append(s.reps, &replica{srv: srv, mon: mon, http: f})
		addrs = append(addrs, f.addr())
	}
	if s.gw, s.gwHTTP, err = newGateway(addrs, []string{"logging", "auth", "ratelimit", "admission"}); err != nil {
		s.close()
		return nil, err
	}
	if r.traced {
		if s.bare, s.bareHT, err = newGateway(addrs, []string{}); err != nil {
			s.close()
			return nil, err
		}
	}
	base, err := testStream(cp)
	if err != nil {
		s.close()
		return nil, err
	}
	s.in = newInputs(base, r.seed)
	s.in.hot, s.in.hotShare = frontHot, frontHotShare
	gwURL := "http://" + s.gwHTTP.addr() + "/v1/predict"
	s.warm = closedLoopN("setup-hot-set", slice, conns, time.Minute, 0, frontHot, postCall(r, s, gwURL, ans, ""))
	return s, nil
}

// postCall POSTs request i to url's /v1/predict and stores the answer.
func postCall(r *run, s *frontStack, url string, ans *answers, name string) call {
	dim := s.cp.Arch[0]
	return func(i int) error {
		x := make(tensor.Vector, dim)
		s.in.fill(i, x)
		id, start := r.tr.begin()
		resp, err := post(s.client, url, x)
		r.tr.end(id, 0, name, start)
		if err != nil {
			return err
		}
		return ans.store(i, resp.Class, resp.Expert, resp.Snapshot)
	}
}

func post(client *http.Client, url string, x tensor.Vector) (httpapi.PredictResponse, error) {
	var resp httpapi.PredictResponse
	body, err := json.Marshal(httpapi.PredictRequest{X: x, Model: frontModel})
	if err != nil {
		return resp, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+frontToken)
	res, err := client.Do(req)
	if err != nil {
		return resp, err
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return resp, err
	}
	switch {
	case res.StatusCode == http.StatusServiceUnavailable || res.StatusCode == http.StatusTooManyRequests:
		return resp, fmt.Errorf("%w: status %d", errRefused, res.StatusCode)
	case res.StatusCode != http.StatusOK:
		return resp, fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(raw))
	}
	err = json.Unmarshal(raw, &resp)
	return resp, err
}

// gatewayCall serves request i through Gateway.Predict in process.
func gatewayCall(r *run, s *frontStack, ans *answers, name string) call {
	dim := s.cp.Arch[0]
	return func(i int) error {
		x := make(tensor.Vector, dim)
		s.in.fill(i, x)
		id, start := r.tr.begin()
		resp, status, err := s.gw.Predict(context.Background(), frontModel, x)
		r.tr.end(id, 0, name, start)
		if status == http.StatusServiceUnavailable {
			return fmt.Errorf("%w: %v", errRefused, err)
		}
		if err != nil {
			return err
		}
		return ans.store(i, resp.Class, resp.Expert, resp.Snapshot)
	}
}

// replicaCall sends request i straight to the replica the gateway's ring
// would pick, over HTTP when overHTTP is set, else through Server.Predict.
func replicaCall(r *run, s *frontStack, ans *answers, name string, overHTTP bool) call {
	dim := s.cp.Arch[0]
	ring := gateway.NewRing(0)
	byAddr := make(map[string]*replica)
	for _, rp := range s.reps {
		ring.Add(rp.http.addr())
		byAddr[rp.http.addr()] = rp
	}
	return func(i int) error {
		x := make(tensor.Vector, dim)
		s.in.fill(i, x)
		rp := byAddr[ring.Owner(gateway.KeyHash(x))]
		if overHTTP {
			id, start := r.tr.begin()
			resp, err := post(s.client, "http://"+rp.http.addr()+"/v1/predict", x)
			r.tr.end(id, 0, name, start)
			if err != nil {
				return err
			}
			return ans.store(i, resp.Class, resp.Expert, resp.Snapshot)
		}
		id, start := r.tr.begin()
		res, err := rp.srv.Predict(context.Background(), x)
		r.tr.end(id, 0, name, start)
		if errors.Is(err, serve.ErrOverloaded) {
			return fmt.Errorf("%w: %v", errRefused, err)
		}
		if err != nil {
			return err
		}
		return ans.store(i, res.Class, res.Expert, res.Version)
	}
}

func (s *frontStack) accepts() int64 {
	var n int64
	for _, rp := range s.reps {
		n += rp.http.ln.accepts.Load()
	}
	return n
}

func runFrontDoor(r *run) error {
	ans := &answers{}
	ref := r.tr
	r.tr = nil
	st, err := timedSetup(r, 5, func() (*frontStack, error) { return setupFront(r, ans) }, func(s *frontStack) {
		r.addPhase(s.warm)
		verify(r, servedBy(s.reps[0].srv.Snapshot()), s.in, ans, 0, frontHot)
	}, (*frontStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	snap := st.reps[0].srv.Snapshot()
	conns := runtime.NumCPU()
	gwURL := "http://" + st.gwHTTP.addr() + "/v1/predict"

	next := frontHot
	w := closedLoop("warmup", slice, conns, warmup, next, postCall(r, st, gwURL, ans, ""))
	next += w.sent
	r.addPhase(w)
	if r.traced {
		// The bare gateway's session cache gets the hot set too.
		bareURL := "http://" + st.bareHT.addr() + "/v1/predict"
		r.addPhase(closedLoopN("bare-warmup-hot", slice, conns, time.Minute, 0, frontHot, postCall(r, st, bareURL, ans, "")))
	}
	r.tr = ref

	before := st.gw.State()
	acc0 := st.accepts()
	goBefore := readGoCounters()
	var m0 []serve.MetricsSnapshot
	var h0 [][]uint64
	for _, rp := range st.reps {
		m0 = append(m0, rp.srv.Metrics().Snapshot())
		_, c, _, _ := rp.srv.Metrics().BatchSizeHistogram()
		h0 = append(h0, c)
	}
	gatewayBlock := func(dur time.Duration, name string) *phaseResult {
		p := closedLoop(name, slice, conns, dur, next, postCall(r, st, gwURL, ans, "gateway.http"))
		next += p.sent
		return p
	}
	sent := next
	var off, on []*phaseResult
	if !r.traced {
		load := gatewayBlock(r.seconds, "closed")
		r.addPhase(load)
		r.set("throughput_rps", load.quietRate())
		r.set("latency_p50_ms", load.quietQuantile(0.5))
		r.set("latency_p99_ms", load.quietQuantile(0.99))
		for _, m := range []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms"} {
			r.basis(m, "%s", load.basis())
		}
	} else {
		// Half the time alternates untraced and traced blocks of the
		// workload's loop.
		off, on = r.alternating(tracePairs, func(b int) *phaseResult {
			return gatewayBlock(r.seconds/2/(2*tracePairs), blockName("closed", b))
		})
	}
	r.setGoMetrics(goBefore, next-sent)
	after := st.gw.State()
	dials := st.accepts() - acc0

	hits := after.SessionHits - before.SessionHits
	misses := after.SessionMisses - before.SessionMisses
	r.set("gateway.session_hit_frac", float64(hits)/float64(max(hits+misses, 1)))
	r.set("gateway.failovers", float64(after.Failovers-before.Failovers))
	r.set("gateway.upstream_dials_per_1k", 1000*float64(dials)/float64(max(misses, 1)))
	var cacheHits, cacheMisses, rejected, batchSum, batchCount uint64
	bounds, _, _, _ := st.reps[0].srv.Metrics().BatchSizeHistogram()
	hist := make([]uint64, len(h0[0]))
	for k, rp := range st.reps {
		m := rp.srv.Metrics().Snapshot()
		cacheHits += m.CacheHits - m0[k].CacheHits
		cacheMisses += m.CacheMisses - m0[k].CacheMisses
		rejected += m.Rejected
		_, c, sum, count := rp.srv.Metrics().BatchSizeHistogram()
		for i := range c {
			hist[i] += c[i] - h0[k][i]
		}
		batchSum, batchCount = batchSum+sum, batchCount+count
	}
	r.set("serve.cache_hit_frac", float64(cacheHits)/float64(max(cacheHits+cacheMisses, 1)))
	r.set("serve.rejected", float64(rejected))
	batchMean := float64(batchSum) / float64(max(batchCount, 1))
	r.set("serve.batch_mean", batchMean)

	if r.traced {
		// The other half walks down the ladder, one rung after another in
		// rounds, so host drift falls on every rung alike.
		bareURL := "http://" + st.bareHT.addr() + "/v1/predict"
		rungs := []struct {
			name string
			do   call
		}{
			{"gateway.http.bare", postCall(r, st, bareURL, ans, "gateway.http.bare")},
			{"gateway.predict", gatewayCall(r, st, ans, "gateway.predict")},
			{"serve.http", replicaCall(r, st, ans, "serve.http", true)},
			{"serve.predict", replicaCall(r, st, ans, "serve.predict", false)},
		}
		const rounds = tracePairs
		block := r.seconds / 2 / time.Duration(rounds*len(rungs))
		for k := 0; k < rounds; k++ {
			for _, rung := range rungs {
				p := closedLoop(fmt.Sprintf("%s-%d", rung.name, k), slice, conns, block, next, rung.do)
				next += p.sent
				r.addPhase(p)
			}
		}
		r.set("trace.overhead_frac", blockRate(off)/blockRate(on)-1)
	}

	// Swaps invalidate both caches, so they come after the load.
	if err := swapCyclesLayer(r, st.cp, []*serve.Server{st.reps[0].srv, st.reps[1].srv}); err != nil {
		return err
	}
	monitorLayer(r, st.reps[0].mon)
	acc, routed, n := verify(r, servedBy(snap), st.in, ans, 0, next)
	r.set("accuracy", acc)
	r.set("routed_frac", routed)
	r.basis("accuracy", "%d answers", n)
	r.basis("routed_frac", "%d answers", n)
	r.note("verified %d answers against the single-request reference", n)
	if !r.traced {
		return nil
	}

	l0, err := replayL0(r, st.cp, snap, st.in, bounds, hist, batchMean)
	if err != nil {
		return err
	}
	agg := r.tr.aggregate()
	us := func(name string) float64 { return agg[name].meanDur() / 1e3 }
	r.set("gateway.http_us", us("gateway.http"))
	r.set("gateway.predict_us", us("gateway.predict"))
	r.set("serve.http_us", us("serve.http"))
	r.set("serve.predict_us", us("serve.predict"))
	r.set("serve.predict_p99_us", quantile(append([]float64(nil), agg["serve.predict"].durs...), 0.99)/1e3)
	r.set("gateway.ingress_delta_us", us("gateway.http")-us("gateway.predict"))
	r.set("gateway.upstream_delta_us", us("gateway.predict")-us("serve.http"))
	r.set("serve.http_delta_us", us("serve.http")-us("serve.predict"))
	r.set("gateway.chain_delta_us", us("gateway.http")-us("gateway.http.bare"))
	r.set("serve.self_us_per_pred", us("serve.predict")-l0)
	// Blocking steps of one request, as self times along the ladder:
	// ingress, upstream hop, serve HTTP, serve pipeline and L0. Their
	// deltas telescope to the traced gateway span.
	r.set("trace.coverage_frac", us("gateway.http")/1e3/blockMean(off))
	notOnPath(r, windowLayers)
	return nil
}
