package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// LoadConfig tunes a gateway load run — an HTTP client fleet driving a
// RUNNING gateway process (and, through it, the serve replica processes),
// so the run exercises the full middleware chain and real network
// failover, not in-process shortcuts.
type LoadConfig struct {
	// LoadConfig carries the pacing, concurrency, repeat, time budget,
	// scenario shape and tracer. Its swap and shift options are
	// in-process only and rejected here.
	serve.LoadConfig
	// URL is the gateway base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Models are the model names to spread requests across round-robin;
	// empty means the default model.
	Models []string
	// Token is sent as a bearer token when non-empty (required when the
	// predict chain includes "auth").
	Token string
	// Retries is the client-side retry budget per request (default 2).
	// The gateway already fails over internally; client retries cover the
	// race where the gateway itself is mid-eviction.
	Retries int
	// KillPid, when positive, is SIGKILLed once KillAtFraction of the
	// stream has been claimed — the mid-load replica-crash experiment.
	KillPid int
	// KillAtFraction is where in the stream the kill fires (default 0.5).
	KillAtFraction float64
}

func (c LoadConfig) withDefaults() LoadConfig {
	c.LoadConfig = c.LoadConfig.WithDefaults()
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.KillAtFraction <= 0 || c.KillAtFraction >= 1 {
		c.KillAtFraction = 0.5
	}
	if len(c.Models) == 0 {
		c.Models = []string{httpapi.DefaultModel}
	}
	return c
}

// LoadResult is the driver's client-side view of a gateway run plus the
// gateway's own /v1/state at run end (failovers, evictions, session
// cache, per-model shrink stats).
type LoadResult struct {
	serve.LoadResult
	Gateway httpapi.GatewayState
}

// httpTarget issues each request as a POST /v1/predict through the
// gateway's middleware chain, spreading requests across the models
// round-robin and retrying failed attempts.
type httpTarget struct {
	client *http.Client
	cfg    LoadConfig
}

func (t *httpTarget) Predict(ctx context.Context, seq int64, it *serve.WorkItem, root *telemetry.Span, _ time.Time) (serve.Answer, error) {
	a := serve.Answer{Model: t.cfg.Models[int(seq%int64(len(t.cfg.Models)))]}
	root.SetAttr("model", a.Model)
	resp, status, err := t.predictOnce(ctx, root.Context(), a.Model, it.X)
	for err != nil && a.Retries < t.cfg.Retries && ctx.Err() == nil {
		a.Retries++
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			a.Rejections++
			time.Sleep(50 * time.Millisecond)
		}
		resp, status, err = t.predictOnce(ctx, root.Context(), a.Model, it.X)
	}
	a.Class, a.Expert, a.Matched = resp.Class, resp.Expert, resp.Matched
	a.Replica, a.Cached = resp.Replica, resp.GatewayCached
	return a, err
}

// predictOnce issues one predict. The returned status is 0 on transport
// errors.
func (t *httpTarget) predictOnce(ctx context.Context, trace telemetry.SpanContext, model string, x []float64) (httpapi.PredictResponse, int, error) {
	var resp httpapi.PredictResponse
	body, err := json.Marshal(httpapi.PredictRequest{X: x, Model: model})
	if err != nil {
		return resp, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.cfg.URL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if t.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+t.cfg.Token)
	}
	if trace.Valid() {
		telemetry.Inject(req.Header, trace)
	}
	res, err := t.client.Do(req)
	if err != nil {
		return resp, 0, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return resp, res.StatusCode, err
	}
	if res.StatusCode != http.StatusOK {
		var eb httpapi.ErrorBody
		_ = json.Unmarshal(raw, &eb)
		return resp, res.StatusCode, fmt.Errorf("gateway answered %d: %s", res.StatusCode, eb.Error)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, res.StatusCode, err
	}
	return resp, res.StatusCode, nil
}

// RunLoad replays the checkpoint's scenario stream against the gateway at
// cfg.URL with serve.RunLoad, firing the replica kill as a mid-load event.
// Every model in cfg.Models must be served from a checkpoint with the
// same seed/shape (the benchmark script starts all replicas from one
// checkpoint), since the ground truth is regenerated once.
func RunLoad(ctx context.Context, cp *service.Checkpoint, cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return nil, errors.New("gateway: loadgen needs the gateway URL")
	}
	if cfg.SwapMidLoad || cfg.ShiftAt > 0 {
		return nil, errors.New("gateway: mid-load swap and shift injection are in-process options")
	}
	items, err := serve.Workload(cp, cfg.LoadConfig)
	if err != nil {
		return nil, err
	}
	var events []serve.Event
	if cfg.KillPid > 0 {
		events = append(events, serve.Event{
			At:   cfg.KillAtFraction,
			Fire: func() error { return syscall.Kill(cfg.KillPid, syscall.SIGKILL) },
		})
	}
	client := &http.Client{Timeout: 10 * time.Second}
	res, err := serve.RunLoad(ctx, &httpTarget{client: client, cfg: cfg}, items, cfg.LoadConfig, events...)
	if err != nil {
		return nil, err
	}

	// The gateway's own accounting — failovers, evictions, session cache,
	// and the per-model shrink stats the affinity gate asserts on.
	st, err := fetchState(ctx, client, cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("gateway: read /v1/state after load: %w", err)
	}
	if st.Gateway == nil {
		return nil, errors.New("gateway: /v1/state has no gateway section")
	}
	return &LoadResult{LoadResult: *res, Gateway: *st.Gateway}, nil
}

// fetchState reads the gateway's /v1/state envelope.
func fetchState(ctx context.Context, client *http.Client, url string) (*httpapi.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/state", nil)
	if err != nil {
		return nil, err
	}
	res, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var st httpapi.State
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Artifact converts a load result into the versioned BENCH_gateway.json
// form.
func (r *LoadResult) Artifact(cp *service.Checkpoint, cfg LoadConfig) *experiments.GatewayArtifact {
	cfg = cfg.withDefaults()
	replicaCount := 0
	for _, m := range r.Gateway.Models {
		replicaCount += len(m.Replicas)
	}
	a := &experiments.GatewayArtifact{
		Schema: experiments.GatewaySchemaVersion,
		Name:   experiments.GatewayArtifactName,
		Options: experiments.GatewayOptions{
			CheckpointWindows: cp.WindowsDone,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   cfg.SamplesPerParty,
			TestPerParty:      cfg.TestPerParty,
			Seed:              cp.Seed,
			Models:            cfg.Models,
			Replicas:          replicaCount,
			TargetQPS:         cfg.TargetQPS,
			Concurrency:       cfg.Concurrency,
			Repeat:            cfg.Repeat,
			ClientRetries:     cfg.Retries,
			PredictChain:      r.Gateway.Middlewares[RoutePredict],
			KillReplica:       cfg.KillPid > 0,
		},
		Requests:         r.Requests,
		Errors:           r.Errors,
		Rejected:         r.Rejected,
		Retried:          r.Retried,
		DurationMs:       serve.Millis(r.Duration),
		ThroughputPerSec: r.Throughput(),
		LatencyMsP50:     serve.Millis(r.LatencyP50),
		LatencyMsP90:     serve.Millis(r.LatencyP90),
		LatencyMsP99:     serve.Millis(r.LatencyP99),
		LatencyMsMax:     serve.Millis(r.LatencyMax),
		Accuracy:         r.Accuracy(),
		Failovers:        r.Gateway.Failovers,
		Evictions:        r.Gateway.Evictions,
		Readmissions:     r.Gateway.Readmissions,
	}
	if cfg.KillPid > 0 {
		a.Options.KillAtFraction = cfg.KillAtFraction
	}
	if hits, misses := r.Gateway.SessionHits, r.Gateway.SessionMisses; hits+misses > 0 {
		a.SessionHitRate = float64(hits) / float64(hits+misses)
	}
	gw := make(map[string]httpapi.GatewayModelState, len(r.Gateway.Models))
	for _, m := range r.Gateway.Models {
		gw[m.Name] = m
	}
	for _, t := range r.Models {
		mr := experiments.GatewayModelResult{Model: t.Name, Requests: t.Requests, Accuracy: t.Accuracy()}
		if st, ok := gw[t.Name]; ok {
			mr.HealthyReplicas = st.HealthyReplicas
			mr.Replicas = len(st.Replicas)
			if st.LastShrink != nil {
				mr.AffinityRetained = st.LastShrink.RetainedOfSurvivors
				mr.MovedFraction = st.LastShrink.MovedFraction
				mr.KeysTracked = st.LastShrink.KeysTracked
			}
		}
		a.Models = append(a.Models, mr)
	}
	return a
}
