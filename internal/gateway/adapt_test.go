package gateway

import (
	"sync"
	"testing"

	"repro/internal/httpapi"
)

// stubAdaptReporter stands in for the continual controller behind a
// replica's /v1/state continual section.
type stubAdaptReporter struct {
	mu sync.Mutex
	st httpapi.ContinualState
}

func (s *stubAdaptReporter) ContinualState() *httpapi.ContinualState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	return &st
}

func (s *stubAdaptReporter) set(st httpapi.ContinualState) {
	s.mu.Lock()
	s.st = st
	s.mu.Unlock()
}

// TestGatewayFleetAdaptAggregation pins the fleet adaptation view: the probe
// loop reads each replica's controller state from its /v1/state, and the
// gateway's /v1/state reports per-replica phase plus fleet mid-window and
// completed-window aggregates. A replica without a controller contributes
// nothing.
func TestGatewayFleetAdaptAggregation(t *testing.T) {
	aCtl, srv := startReplica(t, "default")
	aBare, _ := startReplica(t, "default")
	rep := &stubAdaptReporter{}
	rep.set(httpapi.ContinualState{Phase: "adapting", WindowsCompleted: 3, Triggers: 4})
	srv.AttachAdaptation(rep)

	g := newTestGateway(t, Config{Models: map[string][]string{"default": {aCtl, aBare}}})
	g.ProbeAll()

	ms := g.State().Models[0]
	var seenCtl, seenBare bool
	for _, r := range ms.Replicas {
		switch r.Addr {
		case aCtl:
			seenCtl = true
			if !r.AdaptSeen || r.AdaptPhase != "adapting" || r.AdaptWindows != 3 {
				t.Fatalf("controller replica scrape wrong: %+v", r)
			}
		case aBare:
			seenBare = true
			if r.AdaptSeen || r.AdaptPhase != "" {
				t.Fatalf("bare replica reports adaptation state: %+v", r)
			}
		}
	}
	if !seenCtl || !seenBare {
		t.Fatalf("replica listing incomplete: %+v", ms.Replicas)
	}
	if ms.AdaptingReplicas != 1 || ms.AdaptWindowsCompleted != 3 {
		t.Fatalf("fleet aggregates wrong: adapting=%d windows=%d", ms.AdaptingReplicas, ms.AdaptWindowsCompleted)
	}

	// The window completes: the replica leaves the mid-window set but its
	// completed count keeps aggregating.
	rep.set(httpapi.ContinualState{Phase: "cooldown", WindowsCompleted: 4})
	g.ProbeAll()
	ms = g.State().Models[0]
	if ms.AdaptingReplicas != 0 || ms.AdaptWindowsCompleted != 4 {
		t.Fatalf("post-window aggregates wrong: adapting=%d windows=%d", ms.AdaptingReplicas, ms.AdaptWindowsCompleted)
	}
}
