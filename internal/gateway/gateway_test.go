package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/tensor"
)

const tinyCheckpoint = "../serve/testdata/checkpoint_tiny.json"

// startReplica boots a real serve replica from the committed tiny
// checkpoint and returns its host:port address.
func startReplica(t *testing.T, model string) (string, *serve.Server) {
	t.Helper()
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(snap, serve.Config{Workers: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); _ = srv.Close() })
	return strings.TrimPrefix(ts.URL, "http://"), srv
}

func inputDim(t *testing.T) int {
	t.Helper()
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	return snap.InputDim()
}

func gatewayPredict(t *testing.T, url string, x tensor.Vector, model string) (httpapi.PredictResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(httpapi.PredictRequest{X: x, Model: model})
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr httpapi.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return pr, resp
}

func TestGatewayEndToEnd(t *testing.T) {
	a1, _ := startReplica(t, "default")
	a2, _ := startReplica(t, "default")
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {a1, a2}},
		Middlewares: map[string][]string{RoutePredict: {"logging"}, RouteAdmin: {}},
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	dim := inputDim(t)
	rng := tensor.NewRNG(3)
	byReplica := map[string]int{}
	var first tensor.Vector
	for i := 0; i < 40; i++ {
		x := rng.NormVec(dim, 0, 1)
		if i == 0 {
			first = x
		}
		pr, resp := gatewayPredict(t, ts.URL, x, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d = %d", i, resp.StatusCode)
		}
		if pr.Model != "default" || pr.Replica == "" {
			t.Fatalf("predict %d response %+v", i, pr)
		}
		if pr.GatewayCached {
			t.Fatalf("fresh input %d claimed gateway-cached", i)
		}
		byReplica[pr.Replica]++
	}
	if len(byReplica) != 2 {
		t.Errorf("40 distinct inputs landed on %d replica(s): %v — ring not sharding", len(byReplica), byReplica)
	}

	// Repeat of the first input: answered from the session cache, no hop.
	pr, _ := gatewayPredict(t, ts.URL, first, "")
	if !pr.GatewayCached {
		t.Error("repeated input not served from the session cache")
	}

	// Same input always routes to the same replica (affinity), cached or
	// not — clear the cache effect by checking the tracker via state.
	var st httpapi.State
	res, err := http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.Daemon != "gateway" || st.Gateway == nil {
		t.Fatalf("state envelope: %+v", st)
	}
	if len(st.Gateway.Models) != 1 || st.Gateway.Models[0].HealthyReplicas != 2 {
		t.Fatalf("gateway model state: %+v", st.Gateway.Models)
	}
	if st.Gateway.SessionHits == 0 {
		t.Error("session hit not counted")
	}

	// Unknown model: 404 with the live vocabulary.
	_, resp := gatewayPredict(t, ts.URL, first, "nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model = %d", resp.StatusCode)
	}

	// Model card carries the replica fleet.
	res, err = http.Get(ts.URL + "/v1/models/default")
	if err != nil {
		t.Fatal(err)
	}
	var card httpapi.ModelInfo
	if err := json.NewDecoder(res.Body).Decode(&card); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if card.Name != "default" || len(card.Replicas) != 2 {
		t.Fatalf("model card %+v", card)
	}
}

// TestGatewayFailoverAndEviction kills one of two replicas under traffic:
// every request must still answer (ring successor failover), the dead
// replica must be evicted, and the shrink must keep every surviving-owner
// key in place.
func TestGatewayFailoverAndEviction(t *testing.T) {
	a1, _ := startReplica(t, "default")
	cp, _ := service.LoadCheckpoint(tinyCheckpoint)
	snap, _ := serve.SnapshotFromCheckpoint(cp)
	srv2, err := serve.NewServer(snap, serve.Config{Workers: 1, Model: "default"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	a2 := strings.TrimPrefix(ts2.URL, "http://")

	g := newTestGateway(t, Config{
		Models:       map[string][]string{"default": {a1, a2}},
		Middlewares:  map[string][]string{RoutePredict: {}, RouteAdmin: {}},
		EvictAfter:   1,
		SessionCache: -1, // disable: every request must traverse routing
		Fanout:       FanoutJSON{TimeoutMs: 3000},
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	dim := inputDim(t)
	rng := tensor.NewRNG(9)
	for i := 0; i < 30; i++ {
		if _, resp := gatewayPredict(t, ts.URL, rng.NormVec(dim, 0, 1), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup predict %d = %d", i, resp.StatusCode)
		}
	}

	// Kill replica 2 mid-fleet.
	ts2.Close()
	_ = srv2.Close()

	for i := 0; i < 30; i++ {
		if _, resp := gatewayPredict(t, ts.URL, rng.NormVec(dim, 0, 1), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill predict %d = %d: failover must hide the dead replica", i, resp.StatusCode)
		}
	}

	st := g.State()
	if st.Evictions == 0 {
		t.Fatal("dead replica never evicted")
	}
	m := st.Models[0]
	if m.HealthyReplicas != 1 {
		t.Fatalf("healthy replicas = %d, want 1: %+v", m.HealthyReplicas, m.Replicas)
	}
	if m.LastShrink == nil {
		t.Fatal("shrink not recorded")
	}
	if m.LastShrink.Removed != a2 {
		t.Errorf("shrink removed %q, want %q", m.LastShrink.Removed, a2)
	}
	if m.LastShrink.KeysTracked == 0 {
		t.Error("no keys tracked across the shrink")
	}
	if m.LastShrink.RetainedOfSurvivors != 1.0 {
		t.Errorf("retainedOfSurvivors = %v, want 1.0", m.LastShrink.RetainedOfSurvivors)
	}
	if st.Failovers == 0 && st.Evictions == 0 {
		t.Error("neither failovers nor evictions recorded across a replica death")
	}
}

// TestGatewaySwapBroadcastInvalidatesSessions pins the session-cache
// invalidation contract: after a fleet-wide hot swap bumps the snapshot
// version, a previously cached answer must be recomputed, not replayed.
func TestGatewaySwapBroadcastInvalidatesSessions(t *testing.T) {
	a1, _ := startReplica(t, "default")
	a2, _ := startReplica(t, "default")
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {a1, a2}},
		Middlewares: map[string][]string{RoutePredict: {}, RouteAdmin: {}},
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	dim := inputDim(t)
	x := tensor.NewRNG(5).NormVec(dim, 0, 1)
	pr1, _ := gatewayPredict(t, ts.URL, x, "")
	if pr2, _ := gatewayPredict(t, ts.URL, x, ""); !pr2.GatewayCached {
		t.Fatal("second request not session-cached")
	} else if pr2.Class != pr1.Class {
		t.Fatal("cached answer diverged")
	}

	// Fleet-wide hot swap via the gateway: quorum broadcast.
	body, _ := json.Marshal(httpapi.SwapRequest{Path: tinyCheckpoint})
	res, err := http.Post(ts.URL+"/v1/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sum httpapi.SnapshotSummary
	if err := json.NewDecoder(res.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("swap broadcast = %d", res.StatusCode)
	}
	if sum.Version <= pr1.Snapshot {
		t.Fatalf("swap did not advance the snapshot: %d -> %d", pr1.Snapshot, sum.Version)
	}

	pr3, _ := gatewayPredict(t, ts.URL, x, "")
	if pr3.GatewayCached {
		t.Fatal("session cache served a retired snapshot after the swap")
	}
	if pr3.Snapshot != sum.Version {
		t.Errorf("post-swap answer from snapshot %d, want %d", pr3.Snapshot, sum.Version)
	}
}

// TestServeGatewayV1Parity pins the API-redesign acceptance criterion:
// for a single-model deployment, the gateway and a bare replica answer
// the /v1 surface identically (the gateway adds only its fleet view).
func TestServeGatewayV1Parity(t *testing.T) {
	addr, _ := startReplica(t, "default")
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {addr}},
		Middlewares: map[string][]string{RoutePredict: {}, RouteAdmin: {}},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	replica := "http://" + addr

	// GET /v1/snapshot: byte-identical bodies.
	get := func(url string) []byte {
		t.Helper()
		res, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, res.StatusCode, buf.String())
		}
		return buf.Bytes()
	}
	if rep, gwb := get(replica+"/v1/snapshot"), get(gw.URL+"/v1/snapshot"); !bytes.Equal(rep, gwb) {
		t.Errorf("snapshot bodies differ:\nreplica: %s\ngateway: %s", rep, gwb)
	}

	// GET /v1/models/default: identical cards modulo the gateway-only
	// replica fleet view.
	var repCard, gwCard httpapi.ModelInfo
	if err := json.Unmarshal(get(replica+"/v1/models/default"), &repCard); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get(gw.URL+"/v1/models/default"), &gwCard); err != nil {
		t.Fatal(err)
	}
	if len(gwCard.Replicas) != 1 {
		t.Fatalf("gateway card has no fleet view: %+v", gwCard)
	}
	gwCard.Replicas = nil
	if !reflect.DeepEqual(repCard, gwCard) {
		t.Errorf("model cards differ:\nreplica: %+v\ngateway: %+v", repCard, gwCard)
	}

	// POST /v1/predict: identical prediction, gateway adds Replica.
	x := tensor.NewRNG(13).NormVec(repCard.InputDim, 0, 1)
	body, _ := json.Marshal(httpapi.PredictRequest{X: x})
	post := func(url string) httpapi.PredictResponse {
		t.Helper()
		res, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/v1/predict = %d", url, res.StatusCode)
		}
		var pr httpapi.PredictResponse
		if err := json.NewDecoder(res.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	repPR, gwPR := post(replica), post(gw.URL)
	if gwPR.Replica != addr {
		t.Errorf("gateway response replica = %q, want %q", gwPR.Replica, addr)
	}
	gwPR.Replica, gwPR.Cached = "", repPR.Cached // replica-local cache state may differ
	if repPR != gwPR {
		t.Errorf("predictions differ:\nreplica: %+v\ngateway: %+v", repPR, gwPR)
	}

	// Unknown models answer the same shape on both tiers: 404 + live
	// model listing.
	for _, base := range []string{replica, gw.URL} {
		res, err := http.Get(base + "/v1/models/ghost")
		if err != nil {
			t.Fatal(err)
		}
		var eb httpapi.ErrorBody
		_ = json.NewDecoder(res.Body).Decode(&eb)
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound || len(eb.Models) != 1 || eb.Models[0] != "default" {
			t.Errorf("%s unknown-model answer: %d %+v", base, res.StatusCode, eb)
		}
	}
}

// TestGatewayRegistrationAndProbe pins runtime replica registration and
// the probe-driven health lifecycle at the registry level, and that a probe
// costs each replica exactly one request.
func TestGatewayRegistrationAndProbe(t *testing.T) {
	_, srv := startReplica(t, "default")
	var served atomic.Int64 // requests the live replica received
	h := srv.Handler()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer live.Close()
	addr := strings.TrimPrefix(live.URL, "http://")
	g := newTestGateway(t, Config{
		Models:      map[string][]string{"default": {}},
		Middlewares: map[string][]string{RoutePredict: {}, RouteAdmin: {}},
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Register the live replica: 200 with it healthy and probed.
	body, _ := json.Marshal(map[string]string{"model": "default", "addr": addr})
	res, err := http.Post(ts.URL+"/v1/replicas", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var mst httpapi.GatewayModelState
	if err := json.NewDecoder(res.Body).Decode(&mst); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || mst.HealthyReplicas != 1 {
		t.Fatalf("register live replica: %d %+v", res.StatusCode, mst)
	}
	if mst.Replicas[0].Snapshot == 0 {
		t.Error("registration probe did not record the snapshot version")
	}
	if n := served.Load(); n != 1 {
		t.Errorf("registration probe made %d requests, want 1", n)
	}

	// Register a dead address: 202, kept for the prober to retry.
	body, _ = json.Marshal(map[string]string{"model": "default", "addr": "127.0.0.1:1"})
	res, err = http.Post(ts.URL+"/v1/replicas", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("register dead replica = %d, want 202", res.StatusCode)
	}

	// Predicts still work, routed around the dead registration.
	x := tensor.NewRNG(1).NormVec(inputDim(t), 0, 1)
	if _, resp := gatewayPredict(t, ts.URL, x, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with one dead registration = %d", resp.StatusCode)
	}

	// A probe pass keeps the live one healthy and does not resurrect the
	// dead one; each pass reads the live replica exactly once.
	for i := 0; i < 3; i++ {
		before := served.Load()
		g.ProbeAll()
		if n := served.Load() - before; n != 1 {
			t.Fatalf("probe pass %d made %d requests to the replica, want 1", i, n)
		}
	}
	st := g.State()
	if st.Models[0].HealthyReplicas != 1 {
		t.Fatalf("after probe: %+v", st.Models[0])
	}
}
