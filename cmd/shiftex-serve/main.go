// Command shiftex-serve is the ShiftEx inference-serving daemon: it loads a
// trained aggregator checkpoint (written by cmd/shiftex-aggregator) into an
// immutable serving snapshot and answers prediction requests over HTTP,
// routing each request to the expert whose latent memory matches the
// request's embedding signature and micro-batching per expert onto a
// zero-allocation worker pool.
//
//	shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json
//	shiftex-serve -checkpoint ckpt.json -http 127.0.0.1:8090
//	curl -s -X POST -d '{"x":[0.1, ...]}' http://127.0.0.1:8090/predict
//
// A running server picks up retrained checkpoints without dropping a
// request: POST /snapshot {"path":"ckpt.json"} hot-swaps atomically, and
// SIGHUP re-reads the -checkpoint path in place. SIGINT/SIGTERM drain every
// in-flight batch before exit and write a final serving-metrics snapshot
// (-metrics-out).
//
// -loadgen switches to load-generation mode: the server runs in-process,
// the checkpoint run's scenario stream is replayed against it at -qps
// (0 = open loop), and the run is recorded as a versioned BENCH_serving.json
// artifact (throughput, latency quantiles, per-regime routing accuracy
// under the scenario's injected shift).
//
// The daemon runs a live drift monitor by default (-monitor=false disables
// it): the batched routing path tees every routed embedding off-path into
// bounded sketches scored against the checkpoint's latent memories, surfaced
// on /v1/debug/drift and as shiftex_monitor_* metrics. -loadgen -shift-at F
// injects a covariate regime change (-shift-kind/-shift-severity) after
// fraction F of the run and reports whether the monitor caught it;
// -driftbench measures detection latency and monitoring overhead against an
// unmonitored baseline and writes BENCH_drift.json, gated by
// -max-drift-overhead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/continual"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-serve", flag.ContinueOnError)
	checkpoint := fs.String("checkpoint", "", "aggregator checkpoint to serve (required; written by shiftex-aggregator -checkpoint)")
	httpAddr := fs.String("http", "127.0.0.1:8090", "serve the /v1 API (plus deprecated unversioned aliases) on this address")
	model := fs.String("model", "", "model name this replica serves under (default \"default\"; must match the gateway registry entry)")
	gatewayURL := fs.String("gateway", "", "self-register with this shiftex-gateway base URL at startup (POST /v1/replicas)")
	advertise := fs.String("advertise", "", "address to register at the gateway (default: the -http address)")
	workers := fs.Int("workers", 0, "prediction workers (0 = one per core)")
	maxBatch := fs.Int("max-batch", 32, "flush an expert's queue at this many requests")
	maxDelay := fs.Duration("max-delay", 2*time.Millisecond, "flush an expert's queue when its oldest request has waited this long")
	queueDepth := fs.Int("queue", 4096, "admission bound; requests beyond it are rejected with 503")
	cacheSize := fs.Int("cache", 4096, "LRU route-cache entries (negative = disable)")
	epsScale := fs.Float64("route-eps-scale", 4, "set the EFFECTIVE match radius to calibrated ε × this scale (single-request embeddings are noisier than the window means ε was calibrated on; negative = use ε unscaled; the resulting radius is visible as routeEpsilon on /v1/snapshot and as shiftex_serve_route_epsilon / shiftex_serve_expert_route_epsilon on /v1/metrics)")
	metricsOut := fs.String("metrics-out", "", "write the final serving-metrics snapshot to this JSON file on shutdown")
	debugAddr := fs.String("debug-addr", "", "serve /v1/debug/pprof/ and /v1/debug/traces on this extra address (empty = off)")
	traceBuffer := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity for /v1/debug/traces")

	loadgen := fs.Bool("loadgen", false, "load-generation mode: replay the checkpoint's scenario against an in-process server and write BENCH_serving.json")
	cold := fs.Bool("cold", false, "loadgen: disable the route cache so every request pays the full batched routing + inference path; the artifact is written as BENCH_serving-cold.json")
	qps := fs.Float64("qps", 0, "loadgen target aggregate QPS (0 = open loop, as fast as possible)")
	concurrency := fs.Int("concurrency", 0, "loadgen client goroutines (0 = two per core)")
	repeat := fs.Int("repeat", 3, "loadgen passes over the scenario's request stream (later passes exercise the route cache)")
	duration := fs.Duration("duration", 0, "loadgen time budget (0 = run the full stream)")
	samples := fs.Int("samples", 120, "scenario training samples per party per window (must match the checkpointed run)")
	testN := fs.Int("test", 60, "scenario test samples per party per window (must match the checkpointed run)")
	swapMid := fs.Bool("swap-mid-load", false, "loadgen: hot-swap a fresh snapshot of the same checkpoint halfway through")
	jsonDir := fs.String("json", "", "loadgen: write BENCH_serving.json into this directory (empty = don't write)")
	check := fs.String("check", "", "validate a BENCH_serving.json / BENCH_serving-cold.json artifact, print its headline numbers, and exit")
	minThroughput := fs.Float64("min-throughput", 0, "with -check: fail unless the artifact reports at least this many predictions/sec")
	minMeanBatch := fs.Float64("min-mean-batch", 0, "with -check: fail unless the artifact's mean micro-batch size is at least this (proves batching engaged under load)")
	against := fs.String("against", "", "with -check: compare throughput against this baseline artifact and warn when it regressed by more than 20%")

	tracebench := fs.Bool("tracebench", false, "tracing-overhead benchmark: replay the loadgen workload as interleaved untraced/traced trial pairs against in-process servers and write BENCH_tracing.json")
	trials := fs.Int("trials", serve.DefaultTracingTrials, "with -tracebench or -driftbench: interleaved baseline/treated trial pairs; each side reports its best trial")
	checkTracing := fs.String("check-tracing", "", "validate a BENCH_tracing.json artifact, print its headline numbers, and exit")
	maxOverhead := fs.Float64("max-overhead", 5, "with -tracebench or -check-tracing: fail when tracing costs more than this percent of baseline throughput")

	monitorOn := fs.Bool("monitor", true, "enable the live drift monitor (off-path tee of routed embeddings; surfaced on /v1/debug/drift and as shiftex_monitor_* metrics)")
	monEvalEvery := fs.Int("monitor-eval-every", 0, "drift monitor: run a drift evaluation every this many folded samples (0 = package default)")
	monBaseline := fs.Int("monitor-baseline", 0, "drift monitor: baseline reservoir size frozen as the no-shift reference (0 = package default)")
	monWindow := fs.Int("monitor-window", 0, "drift monitor: sliding recent-embedding window scored against the baseline (0 = package default)")
	monThreshold := fs.Float64("monitor-threshold", 0, "drift monitor: normalized-score crossing level (0 = package default)")
	monSample := fs.Int("monitor-sample", 0, "drift monitor: fold only every Nth teed block — the monitor's CPU governor on saturated hosts (0 = package default, every block)")
	monResamples := fs.Int("monitor-resamples", 0, "drift monitor: bootstrap resamples calibrating the null threshold δ (0 = package default; each resample costs one detector pass over the baseline)")
	shiftAt := fs.Float64("shift-at", 0, "loadgen/driftbench: inject a covariate regime change after this fraction of the run (0 = no shift)")
	shiftKind := fs.String("shift-kind", "frost", "with -shift-at: corruption family to inject (fog, rain, snow, frost, blur, noise, rotate, scale, jitter)")
	shiftSeverity := fs.Int("shift-severity", 5, "with -shift-at: corruption severity, 1 (mild) to 5 (harsh)")
	driftbench := fs.Bool("driftbench", false, "drift-detection benchmark: interleaved unmonitored/monitored cold trials with an injected shift; writes BENCH_drift.json")
	checkDrift := fs.String("check-drift", "", "validate a BENCH_drift.json artifact, print its headline numbers, and exit")
	maxDriftOverhead := fs.Float64("max-drift-overhead", 3, "with -driftbench or -check-drift: fail when monitoring costs more than this percent of baseline throughput, the shift went undetected, or any pre-shift false positive crossed")

	continualOn := fs.Bool("continual", false, "arm the continual adaptation controller: on a confirmed drift crossing, run a live adaptation window against the monitor's sketches and hot-swap the adapted snapshot (requires -monitor; state on /v1/debug/adapt and as shiftex_continual_* metrics)")
	adaptHysteresis := fs.Int("adapt-hysteresis", 0, "continual: consecutive crossed drift evaluations required to arm a trigger (0 = package default, 2)")
	adaptCooldown := fs.Duration("adapt-cooldown", 0, "continual: refractory period after an adaptation window during which triggers are suppressed (0 = package default, 30s)")
	adaptValidation := fs.Bool("adapt-validation", true, "continual: gate promotion on the candidate snapshot not regressing held-back live routing quality")
	adaptValSamples := fs.Int("adapt-validation-samples", 0, "continual: minimum held-back live embeddings the validation gate needs to judge a candidate (0 = package default, 32)")
	adaptbench := fs.Bool("adaptbench", false, "closed-loop adaptation benchmark: frozen baseline on a shifted stream, then a live detect→adapt→swap pass, then post-swap recovery; writes BENCH_adapt-live.json")
	adaptTimeout := fs.Duration("adapt-timeout", 0, "with -adaptbench: budget for the loop to close after the injected shift (0 = package default, 120s)")
	checkAdapt := fs.String("check-adapt", "", "validate a BENCH_adapt-live.json artifact, apply the closed-loop gate, print its headline numbers, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		return checkArtifact(*check, *minThroughput, *minMeanBatch, *against)
	}
	if *checkTracing != "" {
		return checkTracingArtifact(*checkTracing, *maxOverhead)
	}
	if *checkDrift != "" {
		return checkDriftArtifact(*checkDrift, *maxDriftOverhead)
	}
	if *checkAdapt != "" {
		return checkAdaptArtifact(*checkAdapt)
	}
	if *checkpoint == "" {
		return errors.New("-checkpoint PATH is required\n  produce one with: shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json")
	}

	cp, err := service.LoadCheckpoint(*checkpoint)
	if err != nil {
		return err
	}
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return err
	}
	if *cold {
		// Cold-traffic mode: a disabled cache is what makes the benchmark
		// honest about compute throughput, so -cold overrides -cache.
		*cacheSize = -1
	}
	cfg := serve.Config{
		Workers:    *workers,
		MaxBatch:   *maxBatch,
		MaxDelay:   *maxDelay,
		QueueDepth: *queueDepth,
		CacheSize:  *cacheSize,
		Model:      *model,

		RouteEpsilonScale: *epsScale,
	}
	lcfg := serve.LoadConfig{
		TargetQPS:       *qps,
		Concurrency:     *concurrency,
		Repeat:          *repeat,
		MaxDuration:     *duration,
		SamplesPerParty: *samples,
		TestPerParty:    *testN,
		SwapMidLoad:     *swapMid,
	}
	if *shiftAt > 0 {
		kind, err := parseCorruptionKind(*shiftKind)
		if err != nil {
			return err
		}
		lcfg.ShiftAt = *shiftAt
		lcfg.ShiftCorruption = dataset.Corruption{Kind: kind, Severity: *shiftSeverity}
	}
	monCfg := monitor.Config{
		EvalEvery:    *monEvalEvery,
		SampleEvery:  *monSample,
		BaselineSize: *monBaseline,
		WindowSize:   *monWindow,
		Threshold:    *monThreshold,
		Calibrate:    stats.CalibrateConfig{Resamples: *monResamples},
	}
	ccfg := continual.Config{
		Hysteresis: *adaptHysteresis,
		Cooldown:   *adaptCooldown,
		Validation: continual.ValidationConfig{
			Disabled:   !*adaptValidation,
			MinSamples: *adaptValSamples,
		},
	}
	if *adaptbench {
		// The closed-loop bench always injects the shift (after calibration,
		// not at a stream fraction), so the corruption comes straight from
		// -shift-kind/-shift-severity without requiring -shift-at.
		kind, err := parseCorruptionKind(*shiftKind)
		if err != nil {
			return err
		}
		bcfg := continual.BenchConfig{
			SamplesPerParty: *samples,
			TestPerParty:    *testN,
			Concurrency:     *concurrency,
			Corruption:      dataset.Corruption{Kind: kind, Severity: *shiftSeverity},
			Monitor:         monCfg,
			Controller:      ccfg,
			Serve:           cfg,
			AdaptTimeout:    *adaptTimeout,
		}
		return runAdaptbench(cp, bcfg, *jsonDir)
	}
	if *driftbench {
		return runDriftbench(cp, lcfg, cfg, monCfg, *trials, *maxDriftOverhead, *jsonDir)
	}
	if *tracebench {
		return runTracebench(cp, lcfg, cfg, *traceBuffer, *trials, *maxOverhead, *jsonDir)
	}
	// The daemon monitors by default; loadgen attaches the monitor only on
	// shift-injection runs, so plain benchmark replays stay untouched.
	var mon *monitor.Monitor
	if *monitorOn && (!*loadgen || *shiftAt > 0) {
		mon = monitor.New(monCfg)
		cfg.Monitor = mon
	}
	logger := telemetry.NewLogger(os.Stderr, "serve")
	tracer := telemetry.NewTracer("serve", *traceBuffer)
	cfg.Tracer = tracer
	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, tracer, func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}
	srv, err := serve.NewServer(snap, cfg)
	if err != nil {
		return err
	}
	// Both radii are printed: ε is what training calibrated, the effective
	// radius is what routing actually compares against. The old line only
	// showed ε, which made -route-eps-scale invisible at startup.
	fmt.Printf("serving model %q: %d experts (snapshot v%d, %d windows trained, ε=%.4g, effective route ε=%.4g) from %s\n",
		srv.Model(), snap.NumExperts(), snap.Version, cp.WindowsDone,
		snap.Epsilon, srv.Snapshot().RouteEpsilon(), *checkpoint)

	if *loadgen {
		return runLoadgen(srv, cp, cfg, lcfg, mon, *jsonDir)
	}
	if mon != nil {
		fmt.Printf("drift monitor enabled: /v1/debug/drift, shiftex_monitor_* on /v1/metrics\n")
	}
	var ctrl *continual.Controller
	if *continualOn {
		if mon == nil {
			return errors.New("-continual requires the drift monitor (drop -monitor=false)")
		}
		trainer, err := continual.NewLocalTrainer(cp, continual.TrainerConfig{
			SamplesPerParty: *samples,
			TestPerParty:    *testN,
		})
		if err != nil {
			return err
		}
		if ctrl, err = continual.New(mon, srv, trainer, ccfg); err != nil {
			return err
		}
		srv.AttachAdaptation(ctrl)
		ctrl.Start()
		st := ctrl.ContinualState()
		fmt.Printf("continual adaptation armed: hysteresis=%d cooldown=%.0fs validation=%t (/v1/debug/adapt, shiftex_continual_* on /v1/metrics)\n",
			st.Hysteresis, st.CooldownSeconds, *adaptValidation)
	}

	httpSrv := &http.Server{Addr: *httpAddr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	fmt.Printf("listening on http://%s (/v1/predict /v1/snapshot /v1/models/{name} /v1/state /v1/healthz /v1/metrics + deprecated unversioned aliases)\n", *httpAddr)
	logger.Info("listening", "addr", *httpAddr, "model", srv.Model(),
		"snapshot", int64(srv.Snapshot().Version), "experts", snap.NumExperts(),
		"debugAddr", *debugAddr)

	if *gatewayURL != "" {
		regAddr := *advertise
		if regAddr == "" {
			regAddr = *httpAddr
		}
		// Registration is best-effort in the background: the gateway may
		// still be starting, and its health prober re-admits us anyway.
		go registerWithGateway(*gatewayURL, srv.Model(), regAddr)
	}

	// SIGHUP reloads the checkpoint in place; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for {
		select {
		case err := <-httpErr:
			if ctrl != nil {
				ctrl.Close()
			}
			_ = srv.Close()
			return fmt.Errorf("http: %w", err)
		case <-hup:
			if err := srv.SwapFromCheckpoint(*checkpoint); err != nil {
				fmt.Fprintln(os.Stderr, "shiftex-serve: reload:", err)
				continue
			}
			fmt.Printf("reloaded %s as snapshot v%d\n", *checkpoint, srv.Snapshot().Version)
		case <-ctx.Done():
			// Stop accepting HTTP traffic, stand the adaptation controller
			// down (a window in flight completes first), then drain the
			// batching pipeline so every admitted request is answered.
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := httpSrv.Shutdown(shutCtx)
			cancel()
			if ctrl != nil {
				ctrl.Close()
			}
			if closeErr := srv.Close(); err == nil {
				err = closeErr
			}
			m := srv.Metrics().Snapshot()
			fmt.Printf("drained: %d requests served (p50=%.3gms p99=%.3gms), %d matched / %d fallback, %d swaps\n",
				m.Requests, m.P50Seconds*1e3, m.P99Seconds*1e3, m.Matched, m.Fallbacks, m.Swaps)
			if mon != nil {
				mon.Flush()
				sum := mon.Summary()
				fmt.Printf("drift monitor: %d samples folded (%d teed, %d dropped), %d evals, score=%.3f, crossings=%d\n",
					sum.Samples, sum.Teed, sum.Dropped, sum.Evals, sum.Score, sum.Crossings)
				mon.Close()
			}
			logger.Info("drained", "requests", m.Requests,
				"matched", m.Matched, "fallbacks", m.Fallbacks, "swaps", m.Swaps,
				"spans", tracer.SpanCount())
			if *metricsOut != "" {
				if werr := writeMetrics(*metricsOut, m); werr != nil && err == nil {
					err = werr
				}
			}
			return err
		}
	}
}

// registerWithGateway announces this replica to a shiftex-gateway,
// retrying briefly so "start everything at once" deployments converge.
func registerWithGateway(gatewayURL, model, addr string) {
	body, _ := json.Marshal(map[string]string{"model": model, "addr": addr})
	client := &http.Client{Timeout: 2 * time.Second}
	for attempt := 0; attempt < 10; attempt++ {
		res, err := client.Post(strings.TrimRight(gatewayURL, "/")+"/v1/replicas",
			"application/json", bytes.NewReader(body))
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK || res.StatusCode == http.StatusAccepted {
				fmt.Printf("registered with gateway %s as model %q replica %s\n", gatewayURL, model, addr)
				return
			}
		}
		time.Sleep(500 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "shiftex-serve: could not register with gateway %s (gave up after 10 attempts)\n", gatewayURL)
}

// checkArtifact validates a serving artifact and prints its headline
// numbers — the smoke tests' machine-checkable gate on the benchmark.
// minMeanBatch gates the mean micro-batch size (batching actually engaged);
// against, when set, compares throughput to a committed baseline artifact
// and emits a GitHub-annotation warning on a >20% regression — a warning,
// not a failure, because absolute throughput is machine-dependent.
func checkArtifact(path string, minThroughput, minMeanBatch float64, against string) error {
	a, err := experiments.ReadFile[experiments.ServingArtifact](path)
	if err != nil {
		return err
	}
	fmt.Printf("serving artifact ok: name=%s requests=%d errors=%d throughputPerSec=%.0f p99Ms=%.3g accuracy=%.3f routing=%.3f meanBatch=%.2f regimes=%d swaps=%d\n",
		a.Name, a.Requests, a.Errors, a.ThroughputPerSec, a.LatencyMsP99, a.Accuracy, a.RoutedToAssigned, a.MeanBatch, len(a.Regimes), a.Swaps)
	if a.Errors > 0 {
		return fmt.Errorf("artifact records %d errored requests", a.Errors)
	}
	if minThroughput > 0 && a.ThroughputPerSec < minThroughput {
		return fmt.Errorf("throughput %.0f/s below required %.0f/s", a.ThroughputPerSec, minThroughput)
	}
	if minMeanBatch > 0 && a.MeanBatch < minMeanBatch {
		return fmt.Errorf("mean batch size %.2f below required %.2f (micro-batching did not engage)", a.MeanBatch, minMeanBatch)
	}
	if against != "" {
		base, err := experiments.ReadFile[experiments.ServingArtifact](against)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if base.Name != a.Name {
			return fmt.Errorf("baseline %s is a %q artifact, cannot compare against %q", against, base.Name, a.Name)
		}
		ratio := a.ThroughputPerSec / base.ThroughputPerSec
		fmt.Printf("vs baseline %s: %.0f/s -> %.0f/s (%+.1f%%)\n",
			against, base.ThroughputPerSec, a.ThroughputPerSec, (ratio-1)*100)
		if ratio < 0.8 {
			fmt.Printf("::warning file=%s::serving throughput regressed %.1f%% vs committed baseline (%.0f/s -> %.0f/s)\n",
				against, (1-ratio)*100, base.ThroughputPerSec, a.ThroughputPerSec)
		}
	}
	return nil
}

// runTracebench measures tracing overhead against in-process servers,
// prints the headline numbers, optionally records the artifact, and
// applies the overhead gate.
func runTracebench(cp *service.Checkpoint, lcfg serve.LoadConfig, cfg serve.Config, ringSize, trials int, maxOverhead float64, jsonDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a, err := serve.RunTracingBench(ctx, cp, lcfg, cfg, ringSize, trials)
	if err != nil {
		return err
	}
	printTracing(a)
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		path, err := experiments.WriteFile(jsonDir, a.Name, a)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if maxOverhead > 0 {
		return a.CheckOverhead(maxOverhead)
	}
	return nil
}

// checkTracingArtifact validates a tracing artifact and applies the
// overhead gate — the smoke tests' machine-checkable gate on the
// "tracing is near-free" claim.
func checkTracingArtifact(path string, maxOverhead float64) error {
	a, err := experiments.ReadFile[experiments.TracingArtifact](path)
	if err != nil {
		return err
	}
	printTracing(a)
	if maxOverhead > 0 {
		return a.CheckOverhead(maxOverhead)
	}
	return nil
}

func printTracing(a *experiments.TracingArtifact) {
	fmt.Printf("tracing artifact ok: baseline=%.0f/s traced=%.0f/s overhead=%.2f%% spans=%d (baseline p99=%.3gms traced p99=%.3gms)\n",
		a.BaselineThroughputPerSec, a.TracedThroughputPerSec, a.OverheadPercent,
		a.SpansRecorded, a.BaselineLatencyMsP99, a.TracedLatencyMsP99)
}

// parseCorruptionKind resolves a corruption family by its String() name.
func parseCorruptionKind(name string) (dataset.CorruptionKind, error) {
	kinds := []dataset.CorruptionKind{
		dataset.CorruptFog, dataset.CorruptRain, dataset.CorruptSnow,
		dataset.CorruptFrost, dataset.CorruptBlur, dataset.CorruptNoise,
		dataset.CorruptRotate, dataset.CorruptScale, dataset.CorruptJitter,
	}
	valid := make([]string, 0, len(kinds))
	for _, k := range kinds {
		if k.String() == name {
			return k, nil
		}
		valid = append(valid, k.String())
	}
	return dataset.CorruptNone, fmt.Errorf("unknown -shift-kind %q (valid: %s)", name, strings.Join(valid, ", "))
}

// runDriftbench measures drift-detection latency and monitoring overhead
// against in-process servers, prints the headline numbers, optionally
// records the artifact, and applies the detection + overhead gate.
func runDriftbench(cp *service.Checkpoint, lcfg serve.LoadConfig, cfg serve.Config, monCfg monitor.Config, trials int, maxOverhead float64, jsonDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a, err := serve.RunDriftBench(ctx, cp, lcfg, cfg, monCfg, trials)
	if err != nil {
		return err
	}
	printDrift(a)
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		path, err := experiments.WriteFile(jsonDir, a.Name, a)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if maxOverhead > 0 {
		return a.CheckDrift(maxOverhead)
	}
	return nil
}

// checkDriftArtifact validates a drift artifact and applies the detection +
// overhead gate — the smoke tests' machine-checkable gate on the "the
// monitor catches shifts and is near-free" claim.
func checkDriftArtifact(path string, maxOverhead float64) error {
	a, err := experiments.ReadFile[experiments.DriftArtifact](path)
	if err != nil {
		return err
	}
	printDrift(a)
	if maxOverhead > 0 {
		return a.CheckDrift(maxOverhead)
	}
	return nil
}

func printDrift(a *experiments.DriftArtifact) {
	verdict := "shift NOT detected"
	if a.Detected {
		verdict = fmt.Sprintf("detected at sample %d (latency %d samples, score %.2f)",
			a.DetectedAtSample, a.DetectionLatencySamples, a.ScoreAtDetection)
	}
	fmt.Printf("drift artifact ok: baseline=%.0f/s monitored=%.0f/s overhead=%.2f%% samples=%d dropped=%d evals=%d shiftAtSample=%d falsePositives=%d maxScore=%.2f — %s\n",
		a.BaselineThroughputPerSec, a.MonitoredThroughputPerSec, a.OverheadPercent,
		a.SamplesSeen, a.SamplesDropped, a.Evals, a.ShiftAtSample, a.FalsePositives, a.MaxScore, verdict)
}

// runAdaptbench drives the closed-loop continual adaptation benchmark,
// prints the headline numbers, optionally records the artifact, and applies
// the closed-loop gate.
func runAdaptbench(cp *service.Checkpoint, bcfg continual.BenchConfig, jsonDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a, err := continual.RunAdaptLiveBench(ctx, cp, bcfg)
	if err != nil {
		return err
	}
	printAdapt(a)
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		path, err := experiments.WriteFile(jsonDir, a.Name, a)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return a.CheckAdaptLive()
}

// checkAdaptArtifact validates an adapt-live artifact and applies the
// closed-loop gate — the smoke tests' machine-checkable gate on the "the
// serving tier adapts to live drift end to end" claim.
func checkAdaptArtifact(path string) error {
	a, err := experiments.ReadFile[experiments.AdaptLiveArtifact](path)
	if err != nil {
		return err
	}
	printAdapt(a)
	return a.CheckAdaptLive()
}

func printAdapt(a *experiments.AdaptLiveArtifact) {
	verdict := "shift NOT detected"
	if a.Detected {
		verdict = fmt.Sprintf("detected at sample %d (latency %d samples, score %.2f)",
			a.DetectedAtSample, a.DetectionLatencySamples, a.ScoreAtDetection)
	}
	fmt.Printf("adapt-live artifact ok: requests=%d errors=%d rejected=%d shiftAtSample=%d — %s\n",
		a.Requests, a.Errors, a.Rejected, a.ShiftAtSample, verdict)
	fmt.Printf("  loop: windows completed=%d rolledBack=%d rejected=%d, snapshot v%d→v%d, window=%.0fms, shift→swap=%.0fms, experts %d→%d (+%d new, %d merged)\n",
		a.WindowsCompleted, a.WindowsRolledBack, a.WindowsRejected,
		a.SwappedFromVersion, a.SwappedToVersion, a.WindowDurationMs, a.AdaptLatencyMs,
		a.ExpertsBefore, a.ExpertsAfter, a.NewExperts, a.Merged)
	fmt.Printf("  recovery: shifted routing %.3f → %.3f, shifted accuracy %.3f → %.3f (validation matched %.3f → %.3f over %d held-back samples)\n",
		a.FrozenShiftedRouted, a.PostSwapShiftedRouted,
		a.FrozenShiftedAccuracy, a.PostSwapShiftedAccuracy,
		a.ValidationBaselineMatched, a.ValidationCandidateMatched, a.ValidationSamples)
}

// writeMetrics records the final serving counters as indented JSON.
func writeMetrics(path string, m serve.MetricsSnapshot) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runLoadgen drives the in-process load-generation mode. When a monitor is
// attached (shift-injection runs), the run additionally reports whether the
// injected regime change was detected, in the monitor's tee clock.
func runLoadgen(srv *serve.Server, cp *service.Checkpoint, cfg serve.Config, lcfg serve.LoadConfig, mon *monitor.Monitor, jsonDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := serve.RunServerLoad(ctx, srv, cp, lcfg)
	if err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if mon != nil {
		mon.Flush()
		sum := mon.Summary()
		fmt.Printf("drift monitor: %d samples folded (%d teed, %d dropped), %d evals, calibrated=%t, score=%.3f/%.3g\n",
			sum.Samples, sum.Teed, sum.Dropped, sum.Evals, sum.Calibrated, sum.Score, sum.Threshold)
		if res.ShiftInjected {
			detectedAt := uint64(0)
			for _, ev := range mon.Evaluations(0, -1) {
				if ev.Err == "" && ev.Crossed && ev.TeedAt > res.ShiftTeedSamples {
					detectedAt = ev.TeedAt
					break
				}
			}
			if detectedAt != 0 {
				fmt.Printf("drift detected: shift at sample %d, crossed at sample %d (latency %d samples)\n",
					res.ShiftTeedSamples, detectedAt, detectedAt-res.ShiftTeedSamples)
			} else {
				fmt.Printf("drift NOT detected: shift at sample %d, max score %.3f\n", res.ShiftTeedSamples, sum.Score)
			}
		}
		mon.Close()
	}
	res.Print(os.Stdout)
	fmt.Printf("  errors=%d rejected=%d meanBatch=%.2f swaps=%d\n", res.Errors, res.Rejected, res.Server.MeanBatch, res.Server.Swaps)
	if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d requests errored", res.Errors)
	}
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		a := res.Artifact(cp, lcfg, cfg)
		path, err := experiments.WriteFile(jsonDir, a.Name, a)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
