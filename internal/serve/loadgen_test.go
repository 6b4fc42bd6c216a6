package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// tinyLoadConfig matches the scenario shape checkpoint_tiny.json was
// trained with (see EXPERIMENTS.md "Serving benchmark" for the recipe).
func tinyLoadConfig() LoadConfig {
	return LoadConfig{SamplesPerParty: 40, TestPerParty: 20, Concurrency: 4, Repeat: 2}
}

func TestRunLoadAgainstTinyCheckpoint(t *testing.T) {
	cp, snap := loadTiny(t)
	srv, err := NewServer(snap, Config{Workers: 2, MaxDelay: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyLoadConfig()
	res, err := RunServerLoad(context.Background(), srv, cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := uint64(len(cp.Aggregator.Assignment) * cfg.TestPerParty * cfg.Repeat)
	if res.Requests+res.Rejected+res.Errors != wantTotal {
		t.Fatalf("accounted %d requests, want %d", res.Requests+res.Rejected+res.Errors, wantTotal)
	}
	if res.Errors != 0 {
		t.Fatalf("%d requests errored", res.Errors)
	}
	if res.Requests == 0 || res.Duration <= 0 {
		t.Fatal("no load was generated")
	}
	// The snapshot was trained on this distribution; it must beat chance
	// (10 classes) comfortably.
	if acc := res.Accuracy(); acc < 0.2 {
		t.Fatalf("serving accuracy %.3f, want >= 0.2", acc)
	}
	if res.AssignedKnown == 0 {
		t.Fatal("no request had routing ground truth")
	}
	if len(res.Regimes) == 0 {
		t.Fatal("no per-regime breakdown")
	}
	var regimeReqs, regimeKnown uint64
	for _, g := range res.Regimes {
		regimeReqs += g.Requests
		regimeKnown += g.AssignedKnown
	}
	if regimeReqs != res.Requests {
		t.Fatalf("regime breakdown covers %d of %d requests", regimeReqs, res.Requests)
	}
	// The per-regime AssignedKnown tallies must add up to the aggregate —
	// they used to be dropped in the worker merge, which zeroed every
	// regime's routedToAssigned in the committed artifact.
	if regimeKnown != res.AssignedKnown {
		t.Fatalf("regime AssignedKnown sums to %d, aggregate is %d", regimeKnown, res.AssignedKnown)
	}
	// Second pass over the same stream must have hit the route cache.
	if res.Server.CacheHits == 0 {
		t.Fatal("repeat pass produced no cache hits")
	}
	if res.LatencyP99 < res.LatencyP50 || res.LatencyMax < res.LatencyP99 {
		t.Fatalf("latency quantiles disordered: p50=%v p99=%v max=%v", res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
}

func TestRunLoadSwapMidLoadDropsNothing(t *testing.T) {
	cp, snap := loadTiny(t)
	srv, err := NewServer(snap, Config{Workers: 2, MaxDelay: 500 * time.Microsecond, QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyLoadConfig()
	cfg.SwapMidLoad = true
	cfg.Repeat = 1 << 20 // effectively unbounded; the deadline ends the run
	cfg.MaxDuration = 400 * time.Millisecond
	res, err := RunServerLoad(context.Background(), srv, cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d requests errored across the swap", res.Errors)
	}
	if res.Server.Swaps != 1 {
		t.Fatalf("swaps=%d, want exactly 1", res.Server.Swaps)
	}
	if res.Requests == 0 {
		t.Fatal("no load was generated")
	}
}

func TestLoadResultArtifact(t *testing.T) {
	cp, snap := loadTiny(t)
	srv, err := NewServer(snap, Config{Workers: 2, MaxDelay: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyLoadConfig()
	res, err := RunServerLoad(context.Background(), srv, cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact(cp, cfg, Config{Workers: 2, MaxDelay: 500 * time.Microsecond})
	if err := a.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if a.ThroughputPerSec <= 0 || a.Requests != res.Requests {
		t.Fatal("artifact does not reflect the run")
	}
	if a.Options.Seed != cp.Seed || a.Options.CheckpointWindows != cp.WindowsDone {
		t.Fatal("artifact options do not pin the checkpoint protocol")
	}
	if a.Name != experiments.ServingArtifactName || a.Options.ColdTraffic {
		t.Fatalf("cache-enabled run must produce the warm artifact, got %q cold=%v", a.Name, a.Options.ColdTraffic)
	}
}

// TestLoadResultArtifactCold pins the cold-traffic artifact contract: a run
// with the cache disabled names itself "serving-cold", carries the
// coldTraffic flag, and still validates.
func TestLoadResultArtifactCold(t *testing.T) {
	cp, snap := loadTiny(t)
	srvCfg := Config{Workers: 2, MaxDelay: 500 * time.Microsecond, CacheSize: -1}
	srv, err := NewServer(snap, srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := tinyLoadConfig()
	res, err := RunServerLoad(context.Background(), srv, cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact(cp, cfg, srvCfg)
	if a.Name != experiments.ServingColdArtifactName || !a.Options.ColdTraffic {
		t.Fatalf("cold run artifact = %q cold=%v", a.Name, a.Options.ColdTraffic)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("cold artifact invalid: %v", err)
	}
	if a.CacheHitRate != 0 {
		t.Fatalf("cold run reports cacheHitRate %g, want 0", a.CacheHitRate)
	}
	if res.Server.CacheBypass != res.Server.Requests {
		t.Fatalf("bypass=%d requests=%d, every cold request must bypass the cache",
			res.Server.CacheBypass, res.Server.Requests)
	}
}

func TestBuildWorkloadRejectsEmptyAssignment(t *testing.T) {
	cp, _ := loadTiny(t)
	cp.Aggregator.Assignment = nil
	if _, err := Workload(cp, tinyLoadConfig()); err == nil {
		t.Fatal("empty assignment must be rejected")
	}
}

// fakeTarget answers every request correctly from expert 0, after delay,
// counting what it was issued and recording each request's regime.
type fakeTarget struct {
	delay   time.Duration
	issued  atomic.Int64
	mu      sync.Mutex
	regimes map[int64]string
}

func (f *fakeTarget) Predict(_ context.Context, seq int64, it *WorkItem, _ *telemetry.Span, _ time.Time) (Answer, error) {
	time.Sleep(f.delay)
	f.issued.Add(1)
	f.mu.Lock()
	f.regimes[seq] = it.Regime
	f.mu.Unlock()
	return Answer{Class: it.Y, Expert: 0, Matched: true}, nil
}

func stream(n int, regime string, assigned func(i int) int) []WorkItem {
	items := make([]WorkItem, n)
	for i := range items {
		items[i] = WorkItem{Y: i % 3, Party: i, Assigned: assigned(i), Regime: regime}
	}
	return items
}

// TestFireAtFraction pins the one mid-load event contract behind the hot
// swap, the shift injection and the replica kill: the event fires exactly
// once, before the request at its fraction of the stream is issued, or
// the run fails with ErrTooLate and the event never fires — never a
// success that silently skipped it.
func TestFireAtFraction(t *testing.T) {
	cp, _ := loadTiny(t)
	clean := stream(10, "clean", func(int) int { return 0 })
	shifted := stream(10, "shifted", func(int) int { return 0 })

	cases := []struct {
		name string
		// event builds the event under test and a probe reporting, after
		// the run, whether its effect happened.
		event func(t *testing.T, ft *fakeTarget) (Event, func() bool)
	}{
		{"swap", func(t *testing.T, _ *fakeTarget) (Event, func() bool) {
			srv, err := NewServer(snap2(t, cp), Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			next := snap2(t, cp)
			return Event{At: 0.5, Fire: func() error { return srv.Swap(next) }},
				func() bool { return srv.Metrics().Snapshot().Swaps == 1 }
		}},
		{"shift", func(t *testing.T, ft *fakeTarget) (Event, func() bool) {
			return Event{At: 0.5, Stream: shifted}, func() bool {
				seen := false
				for seq, regime := range ft.regimes {
					if (regime == "shifted") != (seq >= 5) {
						return false
					}
					seen = seen || regime == "shifted"
				}
				return seen
			}
		}},
		{"kill", func(t *testing.T, _ *fakeTarget) (Event, func() bool) {
			child := exec.Command("sleep", "60")
			if err := child.Start(); err != nil {
				t.Skipf("cannot start a child process to kill: %v", err)
			}
			exited := make(chan error, 1)
			go func() { exited <- child.Wait() }()
			t.Cleanup(func() { _ = child.Process.Kill() })
			return Event{At: 0.5, Fire: func() error { return syscall.Kill(child.Process.Pid, syscall.SIGKILL) }},
				func() bool {
					select {
					case err := <-exited:
						return err != nil && strings.Contains(err.Error(), "killed")
					case <-time.After(500 * time.Millisecond):
						return false
					}
				}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/in-time", func(t *testing.T) {
			ft := &fakeTarget{regimes: map[int64]string{}}
			ev, happened := tc.event(t, ft)
			fire := ev.Fire
			issuedAtFire := int64(-1)
			ev.Fire = func() error {
				issuedAtFire = ft.issued.Load()
				if fire == nil {
					return nil
				}
				return fire()
			}
			res, err := RunLoad(context.Background(), ft, clean, LoadConfig{Concurrency: 1}, ev)
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != 10 {
				t.Fatalf("served %d requests, want 10", res.Requests)
			}
			if issuedAtFire != 5 {
				t.Fatalf("event fired after %d requests, want 5", issuedAtFire)
			}
			if !happened() {
				t.Fatal("event reported fired but its effect is missing")
			}
		})
		t.Run(tc.name+"/too-late", func(t *testing.T) {
			// The first request outlives the whole time budget, so the run
			// ends before any request could cross the event's fraction.
			ft := &fakeTarget{delay: 20 * time.Millisecond, regimes: map[int64]string{}}
			ev, happened := tc.event(t, ft)
			ev.At = 0.9
			cfg := LoadConfig{Concurrency: 1, Repeat: 1000, MaxDuration: 5 * time.Millisecond}
			if _, err := RunLoad(context.Background(), ft, clean, cfg, ev); !errors.Is(err, ErrTooLate) {
				t.Fatalf("err = %v, want ErrTooLate", err)
			}
			if happened() {
				t.Fatal("a too-late event still fired")
			}
		})
	}
}

// TestLoadPrintoutAgreesWithArtifact pins that the per-regime
// routed-to-assigned figure the -loadgen printout shows and the one the
// artifact records are the same number: both divide by the requests whose
// party has a recorded assignment, not by all requests.
func TestLoadPrintoutAgreesWithArtifact(t *testing.T) {
	cp, _ := loadTiny(t)
	// Half the parties have no recorded assignment; the fake target routes
	// every request to expert 0, the assigned expert of the other half.
	items := stream(8, "fog/2", func(i int) int {
		if i%2 == 0 {
			return -1
		}
		return 0
	})
	ft := &fakeTarget{regimes: map[int64]string{}}
	cfg := LoadConfig{Concurrency: 1}
	res, err := RunLoad(context.Background(), ft, items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact(cp, cfg, Config{})
	if len(a.Regimes) != 1 || a.Regimes[0].RoutedToAssigned != 1 {
		t.Fatalf("artifact regimes = %+v, want one regime routed 1.0", a.Regimes)
	}
	var out bytes.Buffer
	res.Print(&out)
	want := fmt.Sprintf("routed-to-assigned=%.3f", a.Regimes[0].RoutedToAssigned)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("printout disagrees with the artifact (%s):\n%s", want, out.String())
	}
}
