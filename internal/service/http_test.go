package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
)

func TestObservabilityEndpoints(t *testing.T) {
	sc := testScenario(t, 3)
	local, err := LocalTransportForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(local, testOptions(sc, 3))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Before any window: healthy, bootstrapping.
	code, body := get("/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("/v1/healthz = %d, want 200", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health["status"] != "ok" || health["phase"] != "bootstrapping" {
		t.Fatalf("unexpected health: %v", health)
	}

	if _, err := rt.RunWindow(0); err != nil {
		t.Fatal(err)
	}

	code, body = get("/v1/state")
	if code != http.StatusOK {
		t.Fatalf("/v1/state = %d, want 200", code)
	}
	var state httpapi.State
	if err := json.Unmarshal([]byte(body), &state); err != nil {
		t.Fatalf("/v1/state not JSON: %v\n%s", err, body)
	}
	if state.SchemaVersion != httpapi.SchemaVersion || state.Daemon != "aggregator" || state.Aggregator == nil {
		t.Fatalf("state envelope wrong: %s", body)
	}
	agg := state.Aggregator
	if agg.WindowsDone != 1 || len(agg.Experts) != 1 || len(agg.Assignments) != sc.Spec.NumParties {
		t.Fatalf("unexpected state after bootstrap: %s", body)
	}
	if agg.Epsilon <= 0 {
		t.Fatalf("epsilon not calibrated after bootstrap: %s", body)
	}

	// The retired unversioned route answers 404.
	if code, _ := get("/state"); code != http.StatusNotFound {
		t.Fatalf("/state = %d, want 404", code)
	}

	code, body = get("/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	for _, metric := range []string{
		"shiftex_rounds_total", "shiftex_windows_completed", "shiftex_experts",
		"shiftex_round_latency_seconds", "shiftex_shift_events_total",
		"shiftex_party_failures_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
	if !strings.Contains(body, "shiftex_windows_completed 1") {
		t.Errorf("window count not exported:\n%s", body)
	}
	if !strings.Contains(body, "shiftex_rounds_total 4") {
		t.Errorf("4 bootstrap rounds should be counted:\n%s", body)
	}

	// /healthz reflects progress (via the v1 route).
	_, body = get("/v1/healthz")
	if !strings.Contains(body, `"phase": "adapting"`) {
		t.Errorf("health phase should be adapting after bootstrap: %s", body)
	}

	// The JSON metrics form shares the schema envelope.
	code, body = get("/v1/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics?format=json = %d, want 200", code)
	}
	var payload httpapi.MetricsPayload
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	if payload.SchemaVersion != httpapi.SchemaVersion || payload.Daemon != "aggregator" || len(payload.Metrics) == 0 {
		t.Fatalf("metrics payload wrong: %s", body)
	}

	// Unknown routes answer 404 with the live /v1 surface.
	code, body = get("/status")
	if code != http.StatusNotFound {
		t.Fatalf("/status = %d, want 404", code)
	}
	var e httpapi.ErrorBody
	if err := json.Unmarshal([]byte(body), &e); err != nil || len(e.Routes) == 0 {
		t.Fatalf("404 should list live routes: %s", body)
	}
}
