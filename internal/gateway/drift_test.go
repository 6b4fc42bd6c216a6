package gateway

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// startMonitoredReplica boots a serve replica with the drift monitor
// enabled and the route cache disabled (cache hits are invisible to the
// monitor), returning its address plus the in-process handles.
func startMonitoredReplica(t *testing.T, model string) (string, *serve.Server, *monitor.Monitor) {
	t.Helper()
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{
		QueueBlocks:  16,
		BlockRows:    16,
		EvalEvery:    32,
		BaselineSize: 64,
		WindowSize:   32,
		Threshold:    2,
		Calibrate:    stats.CalibrateConfig{Resamples: 20, PValue: 0.05},
		Seed:         3,
	})
	srv, err := serve.NewServer(snap, serve.Config{
		Workers:   1,
		MaxDelay:  200 * time.Microsecond,
		CacheSize: -1,
		Model:     model,
		Monitor:   mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); _ = srv.Close(); mon.Close() })
	return strings.TrimPrefix(ts.URL, "http://"), srv, mon
}

// TestGatewayFleetDriftAggregation pins the fleet view: the probe loop
// reads each replica's drift standing from its /v1/state, and the
// gateway's /v1/state reports per-replica scores plus the fleet max/mean.
// A replica without a monitor contributes nothing (and does not zero the
// aggregates).
func TestGatewayFleetDriftAggregation(t *testing.T) {
	aMon, srv, mon := startMonitoredReplica(t, "default")
	aBare, _ := startReplica(t, "default")
	g := newTestGateway(t, Config{Models: map[string][]string{"default": {aMon, aBare}}})

	// Drive enough in-process traffic through the monitored replica to
	// fill its baseline and calibrate, then force an evaluation. The tee
	// drops blocks once the monitor's 16-block queue is full, so the drive
	// waits for the monitor every 8 requests.
	dim := inputDim(t)
	rng := tensor.NewRNG(9)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := srv.Predict(ctx, rng.NormVec(dim, 0, 1)); err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if i%8 == 7 {
			mon.Flush()
		}
	}
	mon.Flush()
	if sum := mon.Summary(); !sum.Calibrated {
		t.Fatalf("monitor never calibrated: %s", sum.CalibrationError)
	}

	g.ProbeAll()
	st := g.State()
	if len(st.Models) != 1 {
		t.Fatalf("%d models in state, want 1", len(st.Models))
	}
	ms := st.Models[0]
	var seenMon, seenBare bool
	for _, rep := range ms.Replicas {
		switch rep.Addr {
		case aMon:
			seenMon = true
			if !rep.DriftSeen {
				t.Fatalf("monitored replica %s has no drift score after probe: %+v", aMon, rep)
			}
		case aBare:
			seenBare = true
			if rep.DriftSeen {
				t.Fatalf("bare replica %s reports a drift score: %+v", aBare, rep)
			}
		}
	}
	if !seenMon || !seenBare {
		t.Fatalf("replica listing incomplete: %+v", ms.Replicas)
	}
	// One scraped replica: mean equals its score equals the max.
	if ms.DriftMean != ms.DriftMax {
		t.Fatalf("fleet drift mean %g != max %g with a single scraped replica", ms.DriftMean, ms.DriftMax)
	}
}

// TestGatewayVersionSkewReporting pins the skew flag: healthy replicas
// serving different observed snapshot versions flip VersionSkew on, and a
// fleet-wide swap clears it.
func TestGatewayVersionSkewReporting(t *testing.T) {
	a1, srv1 := startReplica(t, "default")
	a2, srv2 := startReplica(t, "default")
	g := newTestGateway(t, Config{Models: map[string][]string{"default": {a1, a2}}})

	g.ProbeAll()
	if st := g.State().Models[0]; st.VersionSkew {
		t.Fatalf("uniform fleet reports version skew: %+v", st.Replicas)
	}

	// Swap only one replica: versions 2 vs 1 is a skewed fleet.
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Swap(snap); err != nil {
		t.Fatal(err)
	}
	g.ProbeAll()
	st := g.State().Models[0]
	if !st.VersionSkew {
		t.Fatalf("split fleet (versions %d/%d) not reported as skewed",
			srv1.Snapshot().Version, srv2.Snapshot().Version)
	}

	// Bring the laggard up to the same version: skew clears.
	snap2, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Swap(snap2); err != nil {
		t.Fatal(err)
	}
	g.ProbeAll()
	if st := g.State().Models[0]; st.VersionSkew {
		t.Fatalf("uniform post-swap fleet still reports skew: %+v", st.Replicas)
	}
}
