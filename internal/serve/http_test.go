package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/tensor"
)

func TestHTTPPredictAndHealth(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, MaxDelay: 500 * time.Microsecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	x := tensor.NewRNG(21).NormVec(srv.Snapshot().InputDim(), 0, 1)
	body, _ := json.Marshal(map[string]any{"x": x})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr httpapi.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Snapshot().ExpertByID(pr.Expert); !ok {
		t.Fatalf("predict answered with unknown expert %d", pr.Expert)
	}

	// Wrong dimension → 400.
	bad, _ := json.Marshal(map[string]any{"x": []float64{1}})
	resp2, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad input status %d, want 400", resp2.StatusCode)
	}

	// GET /v1/predict → 405.
	resp3, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict status %d, want 405", resp3.StatusCode)
	}

	for _, path := range []string{"/v1/healthz", "/v1/snapshot"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`shiftex_serve_requests_total{outcome="ok"} 1`,
		"shiftex_serve_latency_seconds",
		"shiftex_serve_snapshot_version 1",
		"shiftex_serve_experts",
		`shiftex_serve_route_cache_total{result="bypass"}`,
		"# TYPE shiftex_serve_batch_size histogram",
		`shiftex_serve_batch_size_bucket{le="1"} 1`,
		`shiftex_serve_batch_size_bucket{le="+Inf"} 1`,
		"shiftex_serve_batch_size_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestHTTPSnapshotSwap(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"path": tinyCheckpoint})
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d", resp.StatusCode)
	}
	var sum httpapi.SnapshotSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Version != 2 {
		t.Fatalf("post-swap version %d, want 2", sum.Version)
	}

	// Bad path → 422, serving keeps the old snapshot.
	bad, _ := json.Marshal(map[string]string{"path": "testdata/nope.json"})
	resp2, err := http.Post(ts.URL+"/v1/snapshot", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad swap status %d, want 422", resp2.StatusCode)
	}
	if srv.Snapshot().Version != 2 {
		t.Fatal("failed swap must not disturb the serving snapshot")
	}
}

// TestHTTPV1Surface pins the versioned API satellite: /v1 routes respond,
// the retired unversioned routes answer 404, unknown routes list the live
// surface, model-addressed requests work on the hosting replica and 404
// elsewhere, and the effective routing ε is visible in /metrics and the
// snapshot summary.
func TestHTTPV1Surface(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, Model: "fmow", RouteEpsilonScale: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// /v1/predict with the hosted model name.
	x := tensor.NewRNG(7).NormVec(srv.Snapshot().InputDim(), 0, 1)
	body, _ := json.Marshal(httpapi.PredictRequest{X: x, Model: "fmow"})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr httpapi.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Model != "fmow" {
		t.Fatalf("/v1/predict = %d %+v", resp.StatusCode, pr)
	}

	// A model this replica does not host → 404 listing the hosted one.
	body, _ = json.Marshal(httpapi.PredictRequest{X: x, Model: "other"})
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e httpapi.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || len(e.Models) != 1 || e.Models[0] != "fmow" {
		t.Fatalf("unknown model = %d %+v, want 404 listing [fmow]", resp.StatusCode, e)
	}

	// /v1/models/{name}: hosted model card, 404 otherwise.
	resp, err = http.Get(ts.URL + "/v1/models/fmow")
	if err != nil {
		t.Fatal(err)
	}
	var card httpapi.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&card); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if card.Name != "fmow" || card.Experts != srv.Snapshot().NumExperts() {
		t.Fatalf("model card %+v", card)
	}
	wantEps := srv.Snapshot().Epsilon * 3
	if diff := card.RouteEpsilon - wantEps; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("card routeEpsilon %g, want ε×3 = %g", card.RouteEpsilon, wantEps)
	}
	resp, err = http.Get(ts.URL + "/v1/models/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/models/other = %d, want 404", resp.StatusCode)
	}

	// The retired unversioned route answers 404.
	body, _ = json.Marshal(map[string]any{"x": x})
	resp, err = http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/predict = %d, want 404", resp.StatusCode)
	}

	// Unknown route → 404 with the live /v1 surface.
	resp, err = http.Get(ts.URL + "/v2/predict")
	if err != nil {
		t.Fatal(err)
	}
	e = httpapi.ErrorBody{}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || len(e.Routes) == 0 {
		t.Fatalf("unknown route = %d %+v, want 404 with live routes", resp.StatusCode, e)
	}

	// GET /v1/snapshot exposes both calibrated and effective ε.
	resp, err = http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var sum httpapi.SnapshotSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Model != "fmow" || sum.RouteEpsilon <= sum.Epsilon {
		t.Fatalf("snapshot summary must expose widened routeEpsilon: %+v", sum)
	}

	// /v1/metrics carries the effective-ε gauges, per expert included.
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`shiftex_serve_route_epsilon{scope="calibrated"}`,
		`shiftex_serve_route_epsilon{scope="effective"}`,
		`shiftex_serve_expert_route_epsilon{expert=`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing %q in:\n%s", want, text)
		}
	}

	// An expert with a calibrated radius wider than the shared one is
	// matched within that radius, and its gauge must say so.
	wide, err := LoadSnapshot(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var wideID int
	for _, e := range wide.Experts() {
		if e.Memory != nil {
			wideID = e.ID
			break
		}
	}
	const wideRadius = 1e6
	if !wide.SetExpertRadius(wideID, wideRadius) {
		t.Fatal("SetExpertRadius refused a known expert")
	}
	if err := srv.Swap(wide); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("shiftex_serve_expert_route_epsilon{expert=%q} %g\n", strconv.Itoa(wideID), float64(wideRadius))
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("/v1/metrics missing the calibrated radius %q in:\n%s", want, buf.String())
	}

	// /v1/state shares the cross-daemon envelope.
	resp, err = http.Get(ts.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	var st httpapi.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Daemon != "serve" || st.Serve == nil || st.Serve.Model != "fmow" {
		t.Fatalf("/v1/state envelope wrong: %+v", st)
	}
}
