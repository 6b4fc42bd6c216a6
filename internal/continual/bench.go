package continual

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
)

// BenchConfig tunes the closed-loop adaptation benchmark.
type BenchConfig struct {
	// SamplesPerParty / TestPerParty reproduce the checkpoint run's scenario
	// shape (defaults 120/60).
	SamplesPerParty int
	TestPerParty    int
	// Concurrency is the number of open-loop client goroutines driving the
	// closed-loop phase (default: 2 per core).
	Concurrency int
	// Corruption is the covariate shift injected mid-stream (identity
	// selects frost/5, fully deterministic per input).
	Corruption dataset.Corruption
	// Monitor tunes the drift monitor (zero values = package defaults).
	Monitor monitor.Config
	// Controller tunes the adaptation controller (zero values = package
	// defaults, except a zero Cooldown, which the benchmark holds at one
	// minute: it must outlast the post-swap evaluation pass so a second
	// window cannot reshuffle assignments while recovery is being scored).
	Controller Config
	// Serve tunes the serving pipeline. The route cache is force-disabled
	// (every request must tee into the monitor) and the benchmark owns the
	// Monitor field.
	Serve serve.Config
	// Trainer tunes the serve-local trainer's statistics synthesis.
	Stats StatsOptions
	// CalibrationTimeout bounds the clean-traffic warmup waiting for the
	// monitor's δ calibration (default 60s); AdaptTimeout bounds the
	// shifted-traffic phase waiting for the loop to close — detection,
	// window, validation, swap (default 120s).
	CalibrationTimeout time.Duration
	AdaptTimeout       time.Duration
}

func (c BenchConfig) withDefaults() BenchConfig {
	if c.SamplesPerParty <= 0 {
		c.SamplesPerParty = 120
	}
	if c.TestPerParty <= 0 {
		c.TestPerParty = 60
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Corruption.IsIdentity() {
		c.Corruption = serve.DefaultShift
	}
	if c.Controller.Cooldown <= 0 {
		c.Controller.Cooldown = time.Minute
	}
	if c.CalibrationTimeout <= 0 {
		c.CalibrationTimeout = 60 * time.Second
	}
	if c.AdaptTimeout <= 0 {
		c.AdaptTimeout = 120 * time.Second
	}
	return c
}

// evalPass replays items once through a single client against srv — the
// deterministic scoring pass of the frozen and the adapted snapshot.
func evalPass(ctx context.Context, srv *serve.Server, items []serve.WorkItem) (*serve.LoadResult, error) {
	res, err := serve.RunLoad(ctx, srv.Target(), items, serve.LoadConfig{Concurrency: 1})
	if err == nil && res.Errors+res.Rejected > 0 {
		err = fmt.Errorf("continual: evaluation pass failed %d requests", res.Errors+res.Rejected)
	}
	return res, err
}

// driveUntil runs open-loop clients over items against srv until done
// reports true (met) or timeout expires.
func driveUntil(ctx context.Context, srv *serve.Server, items []serve.WorkItem, concurrency int, timeout time.Duration, done func() bool) (res *serve.LoadResult, met bool, err error) {
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	watch := make(chan bool, 1)
	go func() {
		for dctx.Err() == nil && !done() {
			time.Sleep(5 * time.Millisecond)
		}
		met := dctx.Err() == nil
		cancel()
		watch <- met
	}()
	res, err = serve.RunLoad(dctx, srv.Target(), items, serve.LoadConfig{Concurrency: concurrency, Repeat: math.MaxInt32})
	cancel()
	return res, <-watch, err
}

// RunAdaptLiveBench runs the closed-loop continual adaptation benchmark in
// three passes:
//
//  1. Frozen baseline: the shifted stream is scored against a plain server on
//     the checkpoint snapshot — how the system serves the new regime when
//     nothing adapts.
//  2. Closed loop: a monitored server with the controller armed takes clean
//     traffic until the monitor calibrates, then the stream flips to the
//     shifted regime and open-loop clients keep driving until the loop closes
//     — drift detected, adaptation window run against the live sketches,
//     candidate validated, snapshot hot-swapped — or the timeout expires.
//  3. Recovery: the same shifted stream is scored against the now-adapted
//     server, routed-to-assigned measured against the post-window assignment.
//
// The returned artifact records all three; CheckAdaptLive is the CI gate.
func RunAdaptLiveBench(ctx context.Context, cp *service.Checkpoint, cfg BenchConfig) (*experiments.AdaptLiveArtifact, error) {
	cfg = cfg.withDefaults()
	lcfg := serve.LoadConfig{SamplesPerParty: cfg.SamplesPerParty, TestPerParty: cfg.TestPerParty}
	items, err := serve.Workload(cp, lcfg)
	if err != nil {
		return nil, err
	}
	shifted := serve.ShiftItems(items, cfg.Corruption, cp.Seed)

	srvCfg := cfg.Serve
	srvCfg.CacheSize = -1 // full tee coverage: every request routes cold
	srvCfg.Monitor = nil

	// Pass 1: frozen baseline on the shifted stream.
	snapA, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return nil, err
	}
	srvA, err := serve.NewServer(snapA, srvCfg)
	if err != nil {
		return nil, err
	}
	frozen, err := evalPass(ctx, srvA, shifted)
	if cerr := srvA.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Pass 2: the closed loop.
	mon := monitor.New(cfg.Monitor)
	defer mon.Close()
	snapB, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return nil, err
	}
	liveCfg := srvCfg
	liveCfg.Monitor = mon
	srv, err := serve.NewServer(snapB, liveCfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	trainer, err := NewLocalTrainer(cp, TrainerConfig{
		SamplesPerParty: cfg.SamplesPerParty,
		TestPerParty:    cfg.TestPerParty,
		Stats:           cfg.Stats,
	})
	if err != nil {
		return nil, err
	}
	ctrl, err := New(mon, srv, trainer, cfg.Controller)
	if err != nil {
		return nil, err
	}
	srv.AttachAdaptation(ctrl)
	ctrl.Start()
	defer ctrl.Close()

	// Clean warmup until the monitor has calibrated δ.
	clean, calibrated, err := driveUntil(ctx, srv, items, cfg.Concurrency, cfg.CalibrationTimeout,
		func() bool { return mon.Summary().Calibrated })
	if err != nil {
		return nil, err
	}
	if !calibrated {
		return nil, errors.New("continual: monitor never calibrated under clean traffic (raise the calibration timeout or shrink the baseline)")
	}

	// Inject the shift and drive until the loop closes.
	fromVersion := srv.Snapshot().Version
	shiftTeed := mon.Teed()
	shiftWall := time.Now()
	var closedAt time.Time
	drift, closed, err := driveUntil(ctx, srv, shifted, cfg.Concurrency, cfg.AdaptTimeout, func() bool {
		if ctrl.ContinualState().WindowsCompleted == 0 {
			return false
		}
		closedAt = time.Now()
		return true
	})
	if err != nil {
		return nil, err
	}

	// Pass 3: recovery on the adapted snapshot, routed-to-assigned scored
	// against the post-window assignment. Runs inside the controller's
	// cooldown, so the assignment being scored cannot shift underneath it.
	adapted := srv.Snapshot()
	reassigned := make([]serve.WorkItem, len(shifted))
	for i, it := range shifted {
		it.Assigned = -1
		if id, ok := adapted.AssignedExpert(it.Party); ok {
			it.Assigned = id
		}
		reassigned[i] = it
	}
	post, err := evalPass(ctx, srv, reassigned)
	if err != nil {
		return nil, err
	}

	driveDur := clean.Duration + drift.Duration
	st := ctrl.ContinualState()
	monCfg := mon.Config() // the resolved economy, defaults applied
	a := &experiments.AdaptLiveArtifact{
		Schema: experiments.AdaptLiveSchemaVersion,
		Name:   experiments.AdaptLiveArtifactName,
		Options: experiments.AdaptLiveOptions{
			CheckpointWindows:    cp.WindowsDone,
			Parties:              len(cp.Aggregator.Assignment),
			SamplesPerParty:      cfg.SamplesPerParty,
			TestPerParty:         cfg.TestPerParty,
			Seed:                 cp.Seed,
			Concurrency:          cfg.Concurrency,
			ShiftKind:            cfg.Corruption.Kind.String(),
			ShiftSeverity:        cfg.Corruption.Severity,
			EvalEvery:            monCfg.EvalEvery,
			BaselineSize:         monCfg.BaselineSize,
			WindowSize:           monCfg.WindowSize,
			Threshold:            monCfg.Threshold,
			Resamples:            monCfg.Calibrate.Resamples,
			Hysteresis:           st.Hysteresis,
			CooldownMs:           st.CooldownSeconds * 1e3,
			ValidationMinSamples: ctrl.cfg.Validation.MinSamples,
			ValidationDisabled:   ctrl.cfg.Validation.Disabled,
		},
		Requests:           clean.Requests + drift.Requests,
		Errors:             clean.Errors + drift.Errors,
		Rejected:           clean.Rejected + drift.Rejected,
		DurationMs:         serve.Millis(driveDur),
		ShiftAtSample:      shiftTeed,
		ExpertsBefore:      snapB.NumExperts(),
		ExpertsAfter:       adapted.NumExperts(),
		WindowsCompleted:   st.WindowsCompleted,
		WindowsRolledBack:  st.WindowsRolledBack,
		WindowsRejected:    st.WindowsRejected,
		SwappedFromVersion: fromVersion,
		SwappedToVersion:   adapted.Version,

		EvalRequests:            int(frozen.Requests + post.Requests),
		FrozenShiftedRouted:     frozen.RoutingAccuracy(),
		FrozenShiftedAccuracy:   frozen.Accuracy(),
		PostSwapShiftedRouted:   post.RoutingAccuracy(),
		PostSwapShiftedAccuracy: post.Accuracy(),
	}
	if driveDur > 0 {
		a.ThroughputPerSec = float64(a.Requests) / driveDur.Seconds()
	}
	if tr := st.LastTrigger; tr != nil && tr.TeedAt > shiftTeed {
		a.Detected = true
		a.DetectedAtSample = tr.TeedAt
		a.DetectionLatencySamples = tr.TeedAt - shiftTeed
		a.ScoreAtDetection = tr.Score
	}
	if w := st.LastWindow; w != nil {
		a.WindowDurationMs = w.DurationMs
		a.ShiftedParties = w.ShiftedParties
		a.NewExperts = w.NewExperts
		a.Merged = w.Merged
		if v := w.Validation; v != nil {
			a.ValidationSamples = v.Samples
			a.ValidationBaselineMatched = v.BaselineMatched
			a.ValidationCandidateMatched = v.CandidateMatched
		}
	}
	if closed {
		a.AdaptLatencyMs = serve.Millis(closedAt.Sub(shiftWall))
	}
	return a, nil
}
