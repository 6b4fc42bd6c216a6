package continual

import (
	"context"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/stats"
)

// TestClosedLoopEndToEnd drives the full loop against the real checkpoint
// under concurrent traffic: clean warmup → injected covariate shift →
// detection → live adaptation window → validation → hot swap → recovery,
// with the CI gate asserting the post-swap routing strictly improves. The
// -race runs of this test are the concurrency proof for the whole
// monitor → controller → trainer → swap path.
func TestClosedLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop bench needs monitor calibration; skipped in -short")
	}
	cp, err := service.LoadCheckpoint(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	a, err := RunAdaptLiveBench(ctx, cp, BenchConfig{
		SamplesPerParty: 40,
		TestPerParty:    20,
		Concurrency:     8,
		Monitor: monitor.Config{
			EvalEvery:    512,
			BaselineSize: 160,
			WindowSize:   160,
			Calibrate:    stats.CalibrateConfig{Resamples: 20},
		},
		Controller: Config{Cooldown: time.Hour}, // recovery pass must not race a second window
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if err := a.CheckAdaptLive(); err != nil {
		t.Fatalf("closed loop gate failed: %v\nartifact: %+v", err, a)
	}
	// The options block records the effective configuration, defaults
	// applied, not the zero values the caller left unset.
	if a.Options.Threshold <= 0 || a.Options.ValidationMinSamples <= 0 {
		t.Fatalf("options record unresolved defaults: threshold=%g validationMinSamples=%d",
			a.Options.Threshold, a.Options.ValidationMinSamples)
	}
	if a.AdaptLatencyMs <= 0 {
		t.Fatalf("loop closed but latency not recorded: %+v", a)
	}
	if a.ValidationCandidateMatched <= a.ValidationBaselineMatched {
		t.Fatalf("live radius did not lift validation matching: %.3f vs %.3f",
			a.ValidationCandidateMatched, a.ValidationBaselineMatched)
	}
}
