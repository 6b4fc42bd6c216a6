package serve

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// DefaultTracingTrials is the number of interleaved baseline/traced
// trial pairs RunTracingBench runs when the caller does not choose.
const DefaultTracingTrials = 5

// DefaultDriftTrials is the number of interleaved unmonitored/monitored
// trial pairs RunDriftBench runs when the caller does not choose.
const DefaultDriftTrials = 3

// bestTrialPairs is the overhead benchmarks' protocol: one discarded
// baseline warm-up (it absorbs scheduler and frequency ramp-up so the
// baseline is not unfairly slow), then trials interleaved pairs of a
// baseline trial and a treated trial. Each side reports its best trial:
// ambient interference (other tenants, GC of unrelated heaps) only ever
// slows a trial down, so the per-side maximum throughput is the cleanest
// estimate of each configuration's capability, and interleaving keeps
// slow drift from landing on one side. trial returns, besides the load
// result, what the treated side observed; the best treated trial's is
// returned.
func bestTrialPairs[T any](name string, trials int, trial func(treated bool) (*LoadResult, T, error)) (base, treated *LoadResult, seen T, err error) {
	if _, _, err := trial(false); err != nil {
		return nil, nil, seen, fmt.Errorf("serve: %s warm-up: %w", name, err)
	}
	for i := 1; i <= trials; i++ {
		b, _, err := trial(false)
		if err != nil {
			return nil, nil, seen, fmt.Errorf("serve: %s baseline trial %d: %w", name, i, err)
		}
		t, s, err := trial(true)
		if err != nil {
			return nil, nil, seen, fmt.Errorf("serve: %s treated trial %d: %w", name, i, err)
		}
		if base == nil || b.Throughput() > base.Throughput() {
			base = b
		}
		if treated == nil || t.Throughput() > treated.Throughput() {
			treated, seen = t, s
		}
	}
	return base, treated, seen, nil
}

// serveTrial replays the workload once against a fresh server built from
// cp with srvCfg.
func serveTrial(ctx context.Context, cp *service.Checkpoint, cfg LoadConfig, srvCfg Config) (*LoadResult, error) {
	snap, err := SnapshotFromCheckpoint(cp)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(snap, srvCfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	return RunServerLoad(ctx, srv, cp, cfg)
}

// RunTracingBench measures the request-path cost of tracing with the
// bestTrialPairs protocol: an untraced baseline trial against a traced
// trial where every request roots a span and the pipeline records route
// and batch spans into a ring of ringSize. The returned artifact carries
// both throughputs and the overhead percentage the -check gate enforces.
func RunTracingBench(ctx context.Context, cp *service.Checkpoint, cfg LoadConfig, srvCfg Config, ringSize, trials int) (*experiments.TracingArtifact, error) {
	cfg = cfg.WithDefaults()
	cfg.SwapMidLoad = false
	srvCfg = srvCfg.withDefaults()
	if ringSize <= 0 {
		ringSize = telemetry.DefaultRingSize
	}
	if trials <= 0 {
		trials = DefaultTracingTrials
	}
	base, traced, spans, err := bestTrialPairs("tracing bench", trials, func(treated bool) (*LoadResult, uint64, error) {
		var tr *telemetry.Tracer
		if treated {
			tr = telemetry.NewTracer("serve", ringSize)
		}
		pcfg, lcfg := srvCfg, cfg
		pcfg.Tracer, lcfg.Tracer = tr, tr
		res, err := serveTrial(ctx, cp, lcfg, pcfg)
		return res, tr.SpanCount(), err
	})
	if err != nil {
		return nil, err
	}

	a := &experiments.TracingArtifact{
		Schema: experiments.TracingSchemaVersion,
		Name:   experiments.TracingArtifactName,
		Options: experiments.TracingOptions{
			CheckpointWindows: cp.WindowsDone,
			Arch:              cp.Arch,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   cfg.SamplesPerParty,
			TestPerParty:      cfg.TestPerParty,
			Seed:              cp.Seed,
			Concurrency:       cfg.Concurrency,
			Repeat:            cfg.Repeat,
			Workers:           srvCfg.Workers,
			MaxBatch:          srvCfg.MaxBatch,
			MaxDelayMs:        Millis(srvCfg.MaxDelay),
			CacheSize:         srvCfg.CacheSize,
			RingSize:          ringSize,
			Trials:            trials,
		},
		BaselineRequests:         base.Requests,
		BaselineDurationMs:       Millis(base.Duration),
		BaselineThroughputPerSec: base.Throughput(),
		BaselineLatencyMsP99:     Millis(base.LatencyP99),
		TracedRequests:           traced.Requests,
		TracedDurationMs:         Millis(traced.Duration),
		TracedThroughputPerSec:   traced.Throughput(),
		TracedLatencyMsP99:       Millis(traced.LatencyP99),
		SpansRecorded:            spans,
	}
	if a.BaselineThroughputPerSec > 0 {
		a.OverheadPercent = (1 - a.TracedThroughputPerSec/a.BaselineThroughputPerSec) * 100
	}
	return a, nil
}

// monitorRecord is what a monitored drift trial leaves behind once its
// monitor is flushed and closed.
type monitorRecord struct {
	sum   *monitor.Summary
	evals []monitor.Evaluation
	cfg   monitor.Config // with defaults resolved
}

// RunDriftBench measures the drift monitor end to end with the
// bestTrialPairs protocol: the same cold (cache-disabled) workload with a
// corruption injected at ShiftAt of the run, an unmonitored baseline trial
// against a monitored trial whose batched routing path tees every
// embedding into the monitor. The cache is forced off because cache hits
// skip embedding and so are invisible to the monitor; cold traffic is the
// honest coverage condition (and what the committed cold serving baseline
// measures).
//
// Detection is read from the best monitored trial: the watermark is the
// monitor's teed-sample count at the injection instant, detection is
// the first evaluation past the watermark whose score crossed the
// threshold, and any crossing at or before the watermark is a false
// positive the CheckDrift gate rejects.
func RunDriftBench(ctx context.Context, cp *service.Checkpoint, cfg LoadConfig, srvCfg Config, monCfg monitor.Config, trials int) (*experiments.DriftArtifact, error) {
	cfg = cfg.WithDefaults()
	cfg.SwapMidLoad = false
	if cfg.ShiftAt <= 0 {
		cfg.ShiftAt = 0.5
	}
	if cfg.ShiftCorruption.IsIdentity() {
		cfg.ShiftCorruption = DefaultShift
	}
	srvCfg = srvCfg.withDefaults()
	srvCfg.CacheSize = -1
	if trials <= 0 {
		trials = DefaultDriftTrials
	}
	base, monitored, rec, err := bestTrialPairs("drift bench", trials, func(treated bool) (*LoadResult, monitorRecord, error) {
		if !treated {
			res, err := serveTrial(ctx, cp, cfg, srvCfg)
			return res, monitorRecord{}, err
		}
		mon := monitor.New(monCfg)
		defer mon.Close()
		pcfg := srvCfg
		pcfg.Monitor = mon
		res, err := serveTrial(ctx, cp, cfg, pcfg)
		// Drain everything still queued and force a final evaluation so
		// the trial's verdict covers its whole stream.
		mon.Flush()
		return res, monitorRecord{mon.Summary(), mon.Evaluations(0, -1), mon.Config()}, err
	})
	if err != nil {
		return nil, err
	}
	sum := rec.sum
	if sum.Samples == 0 {
		return nil, fmt.Errorf("serve: drift bench monitor folded no samples (teed %d, dropped %d)", sum.Teed, sum.Dropped)
	}
	if !sum.Calibrated {
		return nil, fmt.Errorf("serve: drift bench monitor never calibrated (%d samples folded, baseline needs %d): %s",
			sum.Samples, rec.cfg.BaselineSize, sum.CalibrationError)
	}

	a := &experiments.DriftArtifact{
		Schema: experiments.DriftSchemaVersion,
		Name:   experiments.DriftArtifactName,
		Options: experiments.DriftOptions{
			CheckpointWindows: cp.WindowsDone,
			Arch:              cp.Arch,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   cfg.SamplesPerParty,
			TestPerParty:      cfg.TestPerParty,
			Seed:              cp.Seed,
			Concurrency:       cfg.Concurrency,
			Repeat:            cfg.Repeat,
			Workers:           srvCfg.Workers,
			MaxBatch:          srvCfg.MaxBatch,
			MaxDelayMs:        Millis(srvCfg.MaxDelay),
			ShiftAt:           cfg.ShiftAt,
			ShiftKind:         cfg.ShiftCorruption.String(),
			ShiftSeverity:     cfg.ShiftCorruption.Severity,
			EvalEvery:         rec.cfg.EvalEvery,
			SampleEvery:       rec.cfg.SampleEvery,
			BaselineSize:      rec.cfg.BaselineSize,
			WindowSize:        rec.cfg.WindowSize,
			Threshold:         rec.cfg.Threshold,
			Resamples:         rec.cfg.Calibrate.Resamples,
			Trials:            trials,
		},
		BaselineRequests:          base.Requests,
		BaselineDurationMs:        Millis(base.Duration),
		BaselineThroughputPerSec:  base.Throughput(),
		MonitoredRequests:         monitored.Requests,
		MonitoredDurationMs:       Millis(monitored.Duration),
		MonitoredThroughputPerSec: monitored.Throughput(),
		SamplesSeen:               sum.Samples,
		SamplesDropped:            sum.Dropped,
		Evals:                     sum.Evals,
		ShiftAtSample:             monitored.ShiftTeedSamples,
		Delta:                     sum.Delta,
	}
	if a.BaselineThroughputPerSec > 0 {
		a.OverheadPercent = (1 - a.MonitoredThroughputPerSec/a.BaselineThroughputPerSec) * 100
	}
	for _, ev := range rec.evals {
		if ev.Err != "" {
			continue
		}
		if ev.Score > a.MaxScore {
			a.MaxScore = ev.Score
		}
		if !ev.Crossed {
			continue
		}
		// Compare in the tee clock (ev.TeedAt), the clock the watermark was
		// read in — the folded count lags it when backpressure drops.
		if ev.TeedAt <= a.ShiftAtSample {
			a.FalsePositives++
			continue
		}
		if !a.Detected {
			a.Detected = true
			a.DetectedAtSample = ev.TeedAt
			a.DetectionLatencySamples = ev.TeedAt - a.ShiftAtSample
			a.ScoreAtDetection = ev.Score
		}
	}
	return a, nil
}
