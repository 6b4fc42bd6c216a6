package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/service"
)

// TestRunLoadHTTPTarget drives the HTTP target against a scripted fake
// gateway with one client, so every attempt lands in a known order: the
// first request is refused 429 and succeeds on its retry, the second fails
// 500 through its whole retry budget, and every answer names the replica
// that served it.
func TestRunLoadHTTPTarget(t *testing.T) {
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/state" {
			httpapi.WriteJSON(w, http.StatusOK, httpapi.State{Gateway: &httpapi.GatewayState{}})
			return
		}
		if r.Header.Get("Authorization") != "Bearer tok" {
			httpapi.WriteError(w, http.StatusUnauthorized, "no token")
			return
		}
		var req httpapi.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		switch n := attempts.Add(1); {
		case n == 1:
			httpapi.WriteError(w, http.StatusTooManyRequests, "slow down")
		case n == 2:
			httpapi.WriteJSON(w, http.StatusOK, httpapi.PredictResponse{Model: req.Model, Replica: "r1"})
		case n <= 5:
			httpapi.WriteError(w, http.StatusInternalServerError, "broken")
		default:
			httpapi.WriteJSON(w, http.StatusOK, httpapi.PredictResponse{Model: req.Model, Replica: "r2", GatewayCached: n%2 == 0})
		}
	}))
	defer fake.Close()

	// One test example per party: 8 requests.
	res, err := RunLoad(context.Background(), cp, LoadConfig{
		LoadConfig: serve.LoadConfig{Concurrency: 1, SamplesPerParty: 40, TestPerParty: 1},
		URL:        fake.URL,
		Token:      "tok",
		Retries:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 7 || res.Errors != 1 {
		t.Fatalf("requests=%d errors=%d, want 7 and 1", res.Requests, res.Errors)
	}
	// One retry after the 429, two after the 500s; only the 429 is a
	// rejection.
	if res.Retried != 3 || res.Rejected != 1 {
		t.Fatalf("retried=%d rejected=%d, want 3 and 1", res.Retried, res.Rejected)
	}
	if want := map[string]uint64{"r1": 1, "r2": 6}; !reflect.DeepEqual(res.ByReplica, want) {
		t.Fatalf("by replica = %v, want %v", res.ByReplica, want)
	}
	if res.Cached != 3 {
		t.Fatalf("gateway-cached = %d, want 3", res.Cached)
	}
	if len(res.Models) != 1 || res.Models[0].Name != httpapi.DefaultModel || res.Models[0].Requests != 7 {
		t.Fatalf("per-model tally = %+v, want 7 requests on the default model", res.Models)
	}
}
