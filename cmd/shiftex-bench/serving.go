package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/continual"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// subcommands are the serving-stack benchmarks and the artifact gate.
// Every run subcommand prints a summary and writes its artifact; only
// check applies a gate.
var subcommands = map[string]func(args []string) error{
	"load":       runLoad,
	"tracebench": runTracebench,
	"driftbench": runDriftbench,
	"adaptbench": runAdaptbench,
	"check":      runCheck,
}

// benchResamples is the bootstrap resample count every bench run's drift
// monitor calibrates its threshold on: a fifth of the daemon default, so
// calibration does not stall runs of a few seconds.
const benchResamples = 20

// runOpts holds the run subcommands' flags. Each flag is declared once,
// in parse; a subcommand names the ones it accepts beyond the shared
// scenario flags (-checkpoint, -samples, -test, -concurrency, -json).
type runOpts struct {
	checkpoint  string
	samples     int
	test        int
	concurrency int
	jsonDir     string

	repeat   int
	duration time.Duration
	trials   int

	cold        bool
	swapMid     bool
	shiftAt     float64
	evalEvery   int
	sampleEvery int

	url     string
	models  string
	token   string
	killPid int
}

func (o *runOpts) parse(cmd string, args []string, accept ...string) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("shiftex-bench "+cmd, flag.ContinueOnError)
	for _, name := range append([]string{"checkpoint", "samples", "test", "concurrency", "json"}, accept...) {
		switch name {
		case "checkpoint":
			fs.StringVar(&o.checkpoint, name, "", "aggregator checkpoint the run serves (required; with -url, the one the replicas serve)")
		case "samples":
			fs.IntVar(&o.samples, name, 120, "scenario training samples per party per window (must match the checkpointed run)")
		case "test":
			fs.IntVar(&o.test, name, 60, "scenario test samples per party per window (must match the checkpointed run)")
		case "concurrency":
			fs.IntVar(&o.concurrency, name, 0, "client goroutines (0 = two per core)")
		case "json":
			fs.StringVar(&o.jsonDir, name, "", "write the BENCH_*.json artifact into this directory (empty = don't write)")
		case "repeat":
			fs.IntVar(&o.repeat, name, 1, "passes over the scenario's request stream")
		case "duration":
			fs.DurationVar(&o.duration, name, 0, "time budget (0 = run the full stream)")
		case "trials":
			fs.IntVar(&o.trials, name, serve.DefaultTrials, "interleaved baseline/treated trial pairs; each side reports its best trial")
		case "cold":
			fs.BoolVar(&o.cold, name, false, "disable the route cache so every request pays the full routing and inference path (writes BENCH_serving-cold.json)")
		case "swap-mid-load":
			fs.BoolVar(&o.swapMid, name, false, "hot-swap a fresh snapshot of the same checkpoint halfway through")
		case "shift-at":
			fs.Float64Var(&o.shiftAt, name, 0, "inject the frost/5 shift (serve.DefaultShift) after this fraction of the run and report whether the drift monitor caught it (0 = no shift)")
		case "monitor-eval-every":
			fs.IntVar(&o.evalEvery, name, 0, "drift monitor: evaluate every this many folded samples (0 = package default)")
		case "monitor-sample":
			fs.IntVar(&o.sampleEvery, name, 0, "drift monitor: fold only every Nth teed block (0 = every block)")
		case "url":
			fs.StringVar(&o.url, name, "", "drive a running shiftex-gateway at this base URL over HTTP (empty = an in-process server)")
		case "models":
			fs.StringVar(&o.models, name, "", "comma-separated model names to spread requests across (empty = the default model)")
		case "token":
			fs.StringVar(&o.token, name, "", "bearer token (required when the gateway's predict chain includes auth)")
		case "kill-pid":
			fs.IntVar(&o.killPid, name, 0, "SIGKILL this replica PID halfway through (0 = no kill)")
		default:
			panic("shiftex-bench: undeclared run flag " + name)
		}
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("%s: unexpected arguments %q", cmd, fs.Args())
	}
	if o.checkpoint == "" {
		return nil, fmt.Errorf("%s: -checkpoint PATH is required\n  produce one with: shiftex-aggregator -load 8 -windows 3 -seed 42 -checkpoint ckpt.json", cmd)
	}
	return fs, nil
}

func (o *runOpts) loadConfig() serve.LoadConfig {
	return serve.LoadConfig{
		Concurrency:     o.concurrency,
		Repeat:          o.repeat,
		MaxDuration:     o.duration,
		SamplesPerParty: o.samples,
		TestPerParty:    o.test,
		SwapMidLoad:     o.swapMid,
		ShiftAt:         o.shiftAt,
	}
}

// monitorConfig sizes the drift monitor's baseline and recent window to
// one replay cycle of the workload (every party's test items once): a
// shorter window is a contiguous chunk of the cycle whose distribution
// differs from the whole, and reads clean traffic as drift.
func (o *runOpts) monitorConfig(cp *service.Checkpoint) monitor.Config {
	cycle := len(cp.Aggregator.Assignment) * o.test
	return monitor.Config{
		EvalEvery:    o.evalEvery,
		SampleEvery:  o.sampleEvery,
		BaselineSize: cycle,
		WindowSize:   cycle,
		Calibrate:    stats.CalibrateConfig{Resamples: benchResamples},
	}
}

// writeArtifact records a into dir as BENCH_<name>.json unless dir is
// empty.
func (o *runOpts) writeArtifact(name string, a any) error {
	if o.jsonDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.jsonDir, 0o755); err != nil {
		return err
	}
	path, err := experiments.WriteFile(o.jsonDir, name, a)
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// firstSet returns the first of names set on the command line, or "".
func firstSet(fs *flag.FlagSet, names ...string) string {
	found := ""
	fs.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if found == "" && f.Name == n {
				found = n
			}
		}
	})
	return found
}

func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runLoad replays the checkpoint's scenario through one serve.Target:
// an in-process server, or with -url a running gateway over HTTP. A flag
// of the other target is rejected rather than ignored.
func runLoad(args []string) error {
	var o runOpts
	fs, err := o.parse("load", args, "repeat", "duration",
		"cold", "swap-mid-load", "shift-at", "monitor-eval-every", "monitor-sample",
		"url", "models", "token", "kill-pid")
	if err != nil {
		return err
	}
	if o.url != "" {
		if f := firstSet(fs, "cold", "swap-mid-load", "shift-at", "monitor-eval-every", "monitor-sample"); f != "" {
			return fmt.Errorf("load: -%s applies to the in-process target only (drop -url)", f)
		}
	} else if f := firstSet(fs, "models", "token", "kill-pid"); f != "" {
		return fmt.Errorf("load: -%s applies to the HTTP target only (add -url)", f)
	} else if f := firstSet(fs, "monitor-eval-every", "monitor-sample"); f != "" && o.shiftAt == 0 {
		return fmt.Errorf("load: -%s tunes the drift monitor, which runs only with -shift-at", f)
	}
	cp, err := service.LoadCheckpoint(o.checkpoint)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	if o.url != "" {
		return loadGateway(ctx, cp, &o)
	}
	return loadServer(ctx, cp, &o)
}

// loadServer drives an in-process server. With -shift-at a drift monitor
// rides along and the summary reports whether it caught the shift, in
// the monitor's tee clock.
func loadServer(ctx context.Context, cp *service.Checkpoint, o *runOpts) error {
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return err
	}
	cfg := serve.Config{}
	if o.cold {
		cfg.CacheSize = -1
	}
	var mon *monitor.Monitor
	if o.shiftAt > 0 {
		mon = monitor.New(o.monitorConfig(cp))
		defer mon.Close()
		cfg.Monitor = mon
	}
	srv, err := serve.NewServer(snap, cfg)
	if err != nil {
		return err
	}
	lcfg := o.loadConfig()
	res, err := serve.RunServerLoad(ctx, srv, cp, lcfg)
	if closeErr := srv.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return err
	}
	if mon != nil {
		mon.Flush()
		sum := mon.Summary()
		fmt.Printf("drift monitor: %d samples folded (%d teed, %d dropped), %d evals, calibrated=%t, score=%.3f/%.3g\n",
			sum.Samples, sum.Teed, sum.Dropped, sum.Evals, sum.Calibrated, sum.Score, sum.Threshold)
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
	res.Print(os.Stdout)
	fmt.Printf("  errors=%d rejected=%d meanBatch=%.2f swaps=%d\n", res.Errors, res.Rejected, res.Server.MeanBatch, res.Server.Swaps)
	a := res.Artifact(cp, lcfg, cfg)
	return o.writeArtifact(a.Name, a)
}

// loadGateway drives a running gateway over HTTP, optionally SIGKILLing
// a replica halfway through.
func loadGateway(ctx context.Context, cp *service.Checkpoint, o *runOpts) error {
	lcfg := gateway.LoadConfig{
		LoadConfig: o.loadConfig(),
		URL:        strings.TrimRight(o.url, "/"),
		Token:      o.token,
		KillPid:    o.killPid,
	}
	if o.models != "" {
		lcfg.Models = strings.Split(o.models, ",")
	}
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
	a := res.Artifact(cp, lcfg)
	return o.writeArtifact(a.Name, a)
}

// runTracebench measures tracing overhead as interleaved untraced/traced
// trial pairs against in-process servers.
func runTracebench(args []string) error {
	var o runOpts
	if _, err := o.parse("tracebench", args, "repeat", "trials"); err != nil {
		return err
	}
	cp, err := service.LoadCheckpoint(o.checkpoint)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	a, err := serve.RunTracingBench(ctx, cp, o.loadConfig(), serve.Config{}, telemetry.DefaultRingSize, o.trials)
	if err != nil {
		return err
	}
	a.Summary(os.Stdout)
	return o.writeArtifact(a.Name, a)
}

// runDriftbench measures drift-detection latency and monitoring overhead
// as interleaved unmonitored/monitored cold trial pairs with
// serve.DefaultShift injected halfway.
func runDriftbench(args []string) error {
	var o runOpts
	if _, err := o.parse("driftbench", args, "repeat", "duration", "monitor-sample"); err != nil {
		return err
	}
	cp, err := service.LoadCheckpoint(o.checkpoint)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	a, err := serve.RunDriftBench(ctx, cp, o.loadConfig(), serve.Config{}, o.monitorConfig(cp), 0)
	if err != nil {
		return err
	}
	a.Summary(os.Stdout)
	return o.writeArtifact(a.Name, a)
}

// runAdaptbench drives the closed loop: a frozen baseline on the shifted
// stream, a live detect → adapt → swap pass, then post-swap recovery.
func runAdaptbench(args []string) error {
	var o runOpts
	if _, err := o.parse("adaptbench", args, "monitor-eval-every"); err != nil {
		return err
	}
	cp, err := service.LoadCheckpoint(o.checkpoint)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	a, err := continual.RunAdaptLiveBench(ctx, cp, continual.BenchConfig{
		SamplesPerParty: o.samples,
		TestPerParty:    o.test,
		Concurrency:     o.concurrency,
		Monitor:         o.monitorConfig(cp),
	})
	if err != nil {
		return err
	}
	a.Summary(os.Stdout)
	return o.writeArtifact(a.Name, a)
}

// runCheck applies the gate of the artifact kind FILE records.
func runCheck(args []string) error {
	fs := flag.NewFlagSet("shiftex-bench check", flag.ContinueOnError)
	var b experiments.Bounds
	fs.Float64Var(&b.MinThroughput, "min-throughput", 0, "serving, gateway: fail below this many predictions/s")
	fs.Float64Var(&b.MinMeanBatch, "min-mean-batch", 0, "serving: fail below this mean micro-batch size")
	fs.Float64Var(&b.MinAffinity, "min-affinity", 0, "gateway: fail unless the replica kill kept at least this fraction of surviving-owner keys")
	fs.StringVar(&b.Against, "against", "", "serving: compare throughput with this baseline artifact and warn on a regression beyond 20%")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: shiftex-bench check [-min-throughput N] [-min-mean-batch N] [-min-affinity F] [-against BASELINE] FILE")
	}
	return experiments.CheckFile(os.Stdout, fs.Arg(0), b)
}
