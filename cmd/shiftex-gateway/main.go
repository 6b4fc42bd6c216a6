// Command shiftex-gateway is the front tier of the ShiftEx serving stack:
// it owns a registry of named models, each backed by a fleet of
// shiftex-serve replicas, and routes /v1 traffic to them with
// consistent-hash affinity, health-checked failover, and a config-selected
// middleware chain (auth, rate limit, admission control, logging).
//
//	shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json
//	shiftex-serve -checkpoint ckpt.json -http 127.0.0.1:9001 &
//	shiftex-serve -checkpoint ckpt.json -http 127.0.0.1:9002 &
//	shiftex-gateway -http 127.0.0.1:8080 -backends 127.0.0.1:9001,127.0.0.1:9002
//	curl -s -X POST -d '{"x":[0.1, ...]}' http://127.0.0.1:8080/v1/predict
//
// Multi-model deployments and middleware chains are described in a JSON
// config (-config); middlewares are selected BY NAME per route group from
// the registered set, and an unknown name fails startup with the live
// listing — the same convention the adaptation-policy registry uses.
//
// -loadgen switches to load-generation mode: the checkpoint run's scenario
// stream is replayed over HTTP against a RUNNING gateway (-url), optionally
// SIGKILLing a replica process mid-load (-kill-pid), and the run is
// recorded as a versioned BENCH_gateway.json artifact. -check validates an
// artifact and gates on zero errors and minimum consistent-hash affinity.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-gateway", flag.ContinueOnError)
	configPath := fs.String("config", "", "gateway JSON config (models, middleware chains, auth tokens, limits)")
	httpAddr := fs.String("http", "", "bind address (overrides config listen; default 127.0.0.1:8080)")
	backends := fs.String("backends", "", "comma-separated serve replica addresses for the default model (config-free single-model mode)")
	verbose := fs.Bool("v", false, "log each request and replica eviction/re-admission")
	debugAddr := fs.String("debug-addr", "", "serve /v1/debug/pprof/ and /v1/debug/traces on this extra address (empty = off)")
	traceBuffer := fs.Int("trace-buffer", telemetry.DefaultRingSize, "span ring-buffer capacity for /v1/debug/traces")

	loadgen := fs.Bool("loadgen", false, "load-generation mode: replay the checkpoint's scenario over HTTP against -url and write BENCH_gateway.json")
	checkpoint := fs.String("checkpoint", "", "loadgen: aggregator checkpoint the replicas serve (ground-truth source)")
	url := fs.String("url", "http://127.0.0.1:8080", "loadgen: base URL of the running gateway")
	models := fs.String("models", "", "loadgen: comma-separated model names to spread requests across (empty = default)")
	token := fs.String("token", "", "loadgen: bearer token (required when the predict chain includes auth)")
	qps := fs.Float64("qps", 0, "loadgen: target aggregate QPS (0 = open loop)")
	concurrency := fs.Int("concurrency", 0, "loadgen: client goroutines (0 = two per core)")
	repeat := fs.Int("repeat", 1, "loadgen: passes over the scenario's request stream")
	duration := fs.Duration("duration", 0, "loadgen: time budget (0 = run the full stream)")
	retries := fs.Int("retries", 2, "loadgen: client-side retries per failed request")
	killPid := fs.Int("kill-pid", 0, "loadgen: SIGKILL this replica PID mid-load (0 = no kill)")
	killAt := fs.Float64("kill-at", 0.5, "loadgen: stream fraction at which the kill fires")
	samples := fs.Int("samples", 120, "loadgen: scenario training samples per party per window (must match the checkpointed run)")
	testN := fs.Int("test", 60, "loadgen: scenario test samples per party per window (must match the checkpointed run)")
	jsonDir := fs.String("json", "", "loadgen: write BENCH_gateway.json into this directory (empty = don't write)")

	check := fs.String("check", "", "validate a BENCH_gateway.json artifact, print its headline numbers, and exit")
	minAffinity := fs.Float64("min-affinity", 0, "with -check: fail unless every shrink retained at least this fraction of surviving-owner keys")
	minThroughput := fs.Float64("min-throughput", 0, "with -check: fail unless the artifact reports at least this many predictions/sec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		return checkArtifact(*check, *minAffinity, *minThroughput)
	}
	if *loadgen {
		if *checkpoint == "" {
			return errors.New("-loadgen requires -checkpoint PATH (the checkpoint the replicas serve)")
		}
		cp, err := service.LoadCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		var names []string
		if *models != "" {
			names = strings.Split(*models, ",")
		}
		return runLoadgen(cp, gateway.LoadConfig{
			LoadConfig: serve.LoadConfig{
				TargetQPS:       *qps,
				Concurrency:     *concurrency,
				Repeat:          *repeat,
				MaxDuration:     *duration,
				SamplesPerParty: *samples,
				TestPerParty:    *testN,
			},
			URL:            strings.TrimRight(*url, "/"),
			Models:         names,
			Token:          *token,
			Retries:        *retries,
			KillPid:        *killPid,
			KillAtFraction: *killAt,
		}, *jsonDir)
	}

	cfg := gateway.Config{}
	if *configPath != "" {
		var err error
		cfg, err = gateway.LoadConfigFile(*configPath)
		if err != nil {
			return err
		}
	}
	if *backends != "" {
		if cfg.Models == nil {
			cfg.Models = map[string][]string{}
		}
		cfg.Models["default"] = append(cfg.Models["default"], strings.Split(*backends, ",")...)
	}
	if len(cfg.Models) == 0 {
		return errors.New("no replicas configured: pass -backends addr,addr or a -config with a models table\n  (replicas may also self-register via POST /v1/replicas once the gateway is up)")
	}
	addr := cfg.Listen
	if *httpAddr != "" {
		addr = *httpAddr
	}
	if addr == "" {
		addr = "127.0.0.1:8080"
	}
	logger := telemetry.NewLogger(os.Stderr, "gateway")
	var gwLogger *slog.Logger
	if *verbose {
		gwLogger = logger
	}
	g, err := gateway.New(cfg, gwLogger)
	if err != nil {
		return err
	}
	tracer := telemetry.NewTracer("gateway", *traceBuffer)
	g.SetTracer(tracer)
	if *debugAddr != "" {
		telemetry.ServeDebug(*debugAddr, tracer, func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}
	g.Start()
	defer g.Close()

	httpSrv := &http.Server{Addr: addr, Handler: g.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	st := g.State()
	fmt.Printf("gateway listening on http://%s: %d model(s), middlewares %v (available: %s)\n",
		addr, len(st.Models), st.Middlewares, strings.Join(gateway.AvailableMiddlewares(), ", "))
	logger.Info("listening", "addr", addr, "models", len(st.Models),
		"middlewares", fmt.Sprint(st.Middlewares), "debugAddr", *debugAddr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-httpErr:
		return fmt.Errorf("http: %w", err)
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutCtx)
		st := g.State()
		fmt.Printf("gateway drained: %d requests (%d errors, %d rejected), %d failovers, %d evictions, %d re-admissions, session cache %d/%d hits\n",
			st.Requests, st.Errors, st.Rejected, st.Failovers, st.Evictions, st.Readmissions,
			st.SessionHits, st.SessionHits+st.SessionMisses)
		logger.Info("drained", "requests", st.Requests, "errors", st.Errors,
			"rejected", st.Rejected, "failovers", st.Failovers,
			"spans", tracer.SpanCount())
		return err
	}
}

// runLoadgen drives the HTTP load-generation mode against a running
// gateway and optionally records the artifact.
func runLoadgen(cp *service.Checkpoint, lcfg gateway.LoadConfig, jsonDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := gateway.RunLoad(ctx, cp, lcfg)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	fmt.Printf("  errors=%d retried=%d rejected=%d gateway-cached=%d failovers=%d evictions=%d readmissions=%d\n",
		res.Errors, res.Retried, res.Rejected, res.Cached,
		res.Gateway.Failovers, res.Gateway.Evictions, res.Gateway.Readmissions)
	for _, m := range res.Gateway.Models {
		line := fmt.Sprintf("  model %-10s replicas=%d healthy=%d", m.Name, len(m.Replicas), m.HealthyReplicas)
		if m.LastShrink != nil {
			line += fmt.Sprintf("  shrink: lost %s, %d keys tracked, moved %.3f, retained-of-survivors %.3f",
				m.LastShrink.Removed, m.LastShrink.KeysTracked, m.LastShrink.MovedFraction, m.LastShrink.RetainedOfSurvivors)
		}
		fmt.Println(line)
	}
	if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d requests failed after retries", res.Errors)
	}
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return err
		}
		a := res.Artifact(cp, lcfg)
		path, err := experiments.WriteFile(jsonDir, a.Name, a)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// checkArtifact validates a gateway artifact and applies the acceptance
// gates: zero errors, and (when asked) minimum affinity retention and
// throughput.
func checkArtifact(path string, minAffinity, minThroughput float64) error {
	a, err := experiments.ReadFile[experiments.GatewayArtifact](path)
	if err != nil {
		return err
	}
	fmt.Printf("gateway artifact ok: requests=%d errors=%d retried=%d throughputPerSec=%.0f p99Ms=%.3g accuracy=%.3f failovers=%d evictions=%d minAffinity=%.3f models=%d\n",
		a.Requests, a.Errors, a.Retried, a.ThroughputPerSec, a.LatencyMsP99,
		a.Accuracy, a.Failovers, a.Evictions, a.MinAffinityRetained(), len(a.Models))
	if a.Errors > 0 {
		return fmt.Errorf("artifact records %d requests failed after retries", a.Errors)
	}
	if minAffinity > 0 {
		if !a.Options.KillReplica {
			return errors.New("-min-affinity set but the artifact records no replica kill")
		}
		if got := a.MinAffinityRetained(); got < minAffinity {
			return fmt.Errorf("affinity retention %.3f below required %.3f", got, minAffinity)
		}
	}
	if minThroughput > 0 && a.ThroughputPerSec < minThroughput {
		return fmt.Errorf("throughput %.0f/s below required %.0f/s", a.ThroughputPerSec, minThroughput)
	}
	return nil
}
