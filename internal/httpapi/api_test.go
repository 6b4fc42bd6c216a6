package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAPIVersionedRoutesAndAliases(t *testing.T) {
	api := NewAPI()
	api.Handle("/v1/ping", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"pong": "v1"})
	})
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/ping = %d, want 200", resp.StatusCode)
	}

	// The unversioned path is not an alias: it answers 404.
	resp, err = http.Get(ts.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/ping = %d, want 404", resp.StatusCode)
	}
}

func TestAPIUnknownRouteListsLiveSurface(t *testing.T) {
	api := NewAPI()
	api.Handle("/v1/predict", func(w http.ResponseWriter, _ *http.Request) {})
	api.Handle("/v1/models/{name}", func(w http.ResponseWriter, _ *http.Request) {})
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route = %d, want 404", resp.StatusCode)
	}
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Routes) != 2 || body.Routes[0] != "/v1/models/{name}" || body.Routes[1] != "/v1/predict" {
		t.Errorf("404 routes = %v, want sorted live surface", body.Routes)
	}
	if !strings.Contains(body.Error, "/v1") {
		t.Errorf("404 error %q does not point at /v1", body.Error)
	}
}

func TestAPIRejectsUnversionedHandle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Handle outside /v1 should panic")
		}
	}()
	NewAPI().Handle("/predict", func(http.ResponseWriter, *http.Request) {})
}

func TestMetricsBuilderPromAndJSONAgree(t *testing.T) {
	build := func() *MetricsBuilder {
		return NewMetricsBuilder("serve").
			Gauge("x_uptime_seconds", "Uptime.", 1.5).
			CounterVec("x_requests_total", "Requests.",
				Sample{Labels: `outcome="ok"`, Value: 3},
				Sample{Labels: `outcome="error"`, Value: 1})
	}
	text := string(build().Prom())
	for _, want := range []string{
		"# HELP x_uptime_seconds Uptime.",
		"# TYPE x_uptime_seconds gauge",
		"x_uptime_seconds 1.5",
		"# TYPE x_requests_total counter",
		`x_requests_total{outcome="ok"} 3`,
		`x_requests_total{outcome="error"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom text missing %q in:\n%s", want, text)
		}
	}

	p := build().Payload()
	if p.SchemaVersion != SchemaVersion || p.Daemon != "serve" {
		t.Errorf("payload envelope = %+v", p)
	}
	if len(p.Metrics) != 2 || p.Metrics[1].Samples[0].Labels != `outcome="ok"` {
		t.Errorf("payload families = %+v", p.Metrics)
	}

	// The HTTP switch: text by default, JSON on ?format=json.
	rec := httptest.NewRecorder()
	build().ServeMetrics(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("default content type = %q", got)
	}
	rec = httptest.NewRecorder()
	build().ServeMetrics(rec, httptest.NewRequest("GET", "/v1/metrics?format=json", nil))
	var payload MetricsPayload
	if err := json.NewDecoder(rec.Body).Decode(&payload); err != nil {
		t.Fatalf("json form: %v", err)
	}
	if payload.Daemon != "serve" || len(payload.Metrics) != 2 {
		t.Errorf("json form = %+v", payload)
	}
	_ = io.Discard
}

func TestMetricsBuilderExemplar(t *testing.T) {
	text := string(NewMetricsBuilder("serve").
		GaugeVec("x_latency_seconds", "Latency.",
			Sample{Labels: `quantile="0.99"`, Value: 0.004,
				Exemplar: &Exemplar{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Value: 0.012}}).
		Prom())
	want := `x_latency_seconds{quantile="0.99"} 0.004 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.012`
	if !strings.Contains(text, want) {
		t.Errorf("prom text missing exemplar %q in:\n%s", want, text)
	}
}

func TestMetricsBuilderHistogram(t *testing.T) {
	// Per-bucket counts in, cumulative le-labeled series out: buckets
	// {≤1: 5, ≤4: 2, ≤8: 0, +Inf: 1}, sum of observations 23.
	b := NewMetricsBuilder("serve").
		Histogram("x_batch_size", "Batch sizes.",
			[]float64{1, 4, 8}, []uint64{5, 2, 0, 1}, 23)
	text := string(b.Prom())
	for _, want := range []string{
		"# TYPE x_batch_size histogram",
		`x_batch_size_bucket{le="1"} 5`,
		`x_batch_size_bucket{le="4"} 7`,
		`x_batch_size_bucket{le="8"} 7`,
		`x_batch_size_bucket{le="+Inf"} 8`,
		"x_batch_size_sum 23",
		"x_batch_size_count 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("histogram text missing %q in:\n%s", want, text)
		}
	}
	p := b.Payload()
	if len(p.Metrics) != 1 || p.Metrics[0].Type != "histogram" {
		t.Fatalf("histogram payload = %+v", p.Metrics)
	}
	samples := p.Metrics[0].Samples
	if len(samples) != 6 || samples[0].Suffix != "_bucket" || samples[5].Suffix != "_count" {
		t.Errorf("histogram samples = %+v", samples)
	}
}

func TestMetricsBuilderRuntime(t *testing.T) {
	b := NewMetricsBuilder("serve").Runtime(time.Now().Add(-2 * time.Second))
	text := string(b.Prom())
	for _, want := range []string{
		"shiftex_build_info{version=\"" + Version + "\"",
		"goversion=",
		"shiftex_process_uptime_seconds",
		"shiftex_goroutines",
		"shiftex_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("runtime families missing %q in:\n%s", want, text)
		}
	}
	p := b.Payload()
	if len(p.Metrics) != 4 || p.Metrics[0].Samples[0].Value != 1 {
		t.Errorf("runtime payload = %+v", p.Metrics)
	}
}
