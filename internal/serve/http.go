package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// Handler returns the serving API, versioned under /v1:
//
//	POST /v1/predict        {"x":[...],"model":"name"?} → httpapi.PredictResponse
//	GET  /v1/snapshot       serving-snapshot summary (version, experts, ε, effective ε)
//	POST /v1/snapshot       {"path":"ckpt.json"} → hot-swap to that checkpoint
//	GET  /v1/models/{name}  this replica's model card (404 for other names)
//	GET  /v1/state          shared httpapi.State envelope with the serve section
//	GET  /v1/healthz        liveness (always 200 while serving)
//	GET  /v1/metrics        Prometheus text (shared JSON schema with ?format=json)
//	GET  /v1/debug/drift    drift monitor summary + recent evaluations (?n=, ?expert=)
//	GET  /v1/debug/adapt    continual adaptation controller state (200 with enabled:false when detached)
//
// Unknown routes, the retired unversioned ones included, answer 404 with
// the live /v1 listing.
//
// /v1/predict answers 503 with Retry-After when the pipeline is saturated
// and 410 after shutdown has begun, so load balancers can react correctly.
// The same surface is exposed by the gateway tier, so single-model clients
// cannot tell a replica from a fleet.
func (s *Server) Handler() http.Handler {
	api := httpapi.NewAPI()
	api.Handle("/v1/predict", s.handlePredict)
	api.Handle("/v1/snapshot", s.handleSnapshot)
	api.Handle("/v1/models/{name}", s.handleModel)
	api.Handle("/v1/state", s.handleState)
	api.Handle("/v1/healthz", s.handleHealthz)
	api.Handle("/v1/metrics", s.handleMetrics)
	api.Handle("/v1/debug/traces", telemetry.TracesHandler(s.cfg.Tracer).ServeHTTP)
	api.Handle("/v1/debug/drift", monitor.Handler(s.cfg.Model, s.cfg.Monitor))
	api.Handle("/v1/debug/adapt", s.handleDebugAdapt)
	return api.Handler()
}

// Model returns the model name this server serves under.
func (s *Server) Model() string { return s.cfg.Model }

// checkModel rejects requests addressed to a model this replica does not
// host, listing the live (single-entry) vocabulary — mirroring the
// gateway's unknown-model answer so the two tiers respond identically.
func (s *Server) checkModel(w http.ResponseWriter, name string) bool {
	if name == "" || name == s.cfg.Model {
		return true
	}
	httpapi.WriteJSON(w, http.StatusNotFound, httpapi.ErrorBody{
		Error:  fmt.Sprintf("unknown model %q", name),
		Models: []string{s.cfg.Model},
	})
	return false
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req httpapi.PredictRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if !s.checkModel(w, req.Model) {
		return
	}
	// Continue the caller's trace (the gateway injects traceparent) or
	// root a fresh one; a malformed header is replaced, never forwarded.
	span := s.cfg.Tracer.StartFromRequest("serve.predict", r)
	start := time.Now()
	ctx := telemetry.ContextWithSpan(r.Context(), span)
	res, err := s.Predict(ctx, req.X)
	if span != nil {
		span.SetAttr("model", s.cfg.Model)
		span.EndErr(err)
		if err == nil {
			s.metrics.NoteSlowest(time.Since(start), span.Context().TraceID.String())
		}
	}
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrClosed):
		httpapi.WriteError(w, http.StatusGone, err.Error())
		return
	case errors.Is(err, nn.ErrDimension):
		httpapi.WriteError(w, http.StatusBadRequest, err.Error())
		return
	case err != nil:
		// Anything else is a server-side failure (worker error, canceled
		// context): 500 so balancers and alerting treat it as ours, not
		// the client's.
		httpapi.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.PredictResponse{
		Class: res.Class, Expert: res.Expert, Matched: res.Matched,
		Cached: res.Cached, Snapshot: res.Version, Model: s.cfg.Model,
	})
}

// summarize renders the snapshot as the shared wire summary. Both the
// calibrated ε and the effective routing radius (ε × route-eps-scale) are
// reported — the widened radius used to be invisible, which made serving
// routing numbers impossible to reconcile with training calibration.
func (s *Server) summarize(snap *Snapshot) httpapi.SnapshotSummary {
	ids := make([]int, 0, snap.NumExperts())
	for _, e := range snap.Experts() {
		ids = append(ids, e.ID)
	}
	return httpapi.SnapshotSummary{
		SchemaVersion: httpapi.SchemaVersion,
		Model:         s.cfg.Model,
		Version:       snap.Version,
		Experts:       snap.NumExperts(),
		ExpertIDs:     ids,
		Fallback:      snap.Fallback().ID,
		Epsilon:       snap.Epsilon,
		RouteEpsilon:  snap.RouteEpsilon(),
		WindowsDone:   snap.WindowsDone,
		InputDim:      snap.InputDim(),
		Policy:        snap.Policy,
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		httpapi.WriteJSON(w, http.StatusOK, s.summarize(s.Snapshot()))
	case http.MethodPost:
		var req httpapi.SwapRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || req.Path == "" {
			httpapi.WriteError(w, http.StatusBadRequest, `body must be {"path":"checkpoint.json"}`)
			return
		}
		if !s.checkModel(w, req.Model) {
			return
		}
		if err := s.SwapFromCheckpoint(req.Path); err != nil {
			httpapi.WriteError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, s.summarize(s.Snapshot()))
	default:
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// handleModel answers GET /v1/models/{name}: the model card of the one
// model this replica hosts. The gateway serves the same card (plus its
// replica fleet view) for every registered model.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if !s.checkModel(w, r.PathValue("name")) {
		return
	}
	snap := s.Snapshot()
	httpapi.WriteJSON(w, http.StatusOK, httpapi.ModelInfo{
		SchemaVersion: httpapi.SchemaVersion,
		Name:          s.cfg.Model,
		Snapshot:      snap.Version,
		Experts:       snap.NumExperts(),
		Epsilon:       snap.Epsilon,
		RouteEpsilon:  snap.RouteEpsilon(),
		WindowsDone:   snap.WindowsDone,
		InputDim:      snap.InputDim(),
		Policy:        snap.Policy,
	})
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	m := s.metrics.Snapshot()
	ss := &httpapi.ServeState{
		Model:        s.cfg.Model,
		Snapshot:     snap.Version,
		Experts:      snap.NumExperts(),
		Epsilon:      snap.Epsilon,
		RouteEpsilon: snap.RouteEpsilon(),
		WindowsDone:  snap.WindowsDone,
		Requests:     m.Requests,
		Inflight:     m.Inflight,
	}
	if mon := s.cfg.Monitor; mon != nil {
		if sum := mon.Summary(); sum.Calibrated {
			ss.DriftCalibrated, ss.DriftScore = true, sum.Score
		}
	}
	if rep := s.Adaptation(); rep != nil {
		ss.Continual = rep.ContinualState()
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.State{
		SchemaVersion: httpapi.SchemaVersion,
		Daemon:        "serve",
		Status:        "ok",
		UptimeSeconds: m.UptimeSeconds,
		Serve:         ss,
	})
}

// handleDebugAdapt answers GET /v1/debug/adapt with the attached continual
// controller's state machine. Like /v1/debug/drift, a replica without the
// closed loop still answers 200 (enabled false), so probes can tell
// "adaptation off" from "replica down".
func (s *Server) handleDebugAdapt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := httpapi.ContinualDebugState{SchemaVersion: httpapi.SchemaVersion, Model: s.cfg.Model}
	if rep := s.Adaptation(); rep != nil {
		out.Enabled = true
		out.State = rep.ContinualState()
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	m := s.metrics.Snapshot()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"model":         s.cfg.Model,
		"snapshot":      snap.Version,
		"experts":       snap.NumExperts(),
		"requests":      m.Requests,
		"inflight":      m.Inflight,
		"uptimeSeconds": m.UptimeSeconds,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.Snapshot()
	snap := s.Snapshot()
	// Per-expert effective match radius: experts with a latent-memory
	// signature are matchable within the radius matching uses, the wider of
	// routeEps and the expert's calibrated override; signature-less experts
	// are reported at 0 (they can only serve as the fallback). This is the
	// observable form of -route-eps-scale and of live-calibrated radii.
	experts := snap.Experts()
	epsSamples := make([]httpapi.Sample, 0, len(experts))
	for i, e := range experts {
		eps := 0.0
		if e.Memory != nil {
			eps = snap.acceptRadius(i, snap.RouteEpsilon())
		}
		epsSamples = append(epsSamples, httpapi.Sample{
			Labels: fmt.Sprintf("expert=%q", strconv.Itoa(e.ID)), Value: eps,
		})
	}
	// The latency quantiles carry the slowest traced request as an
	// OpenMetrics exemplar: "p99 regressed" comes with a trace ID to
	// pull from /v1/debug/traces.
	var exemplar *httpapi.Exemplar
	if slowDur, slowTrace := s.metrics.Slowest(); slowTrace != "" {
		exemplar = &httpapi.Exemplar{TraceID: slowTrace, Value: slowDur.Seconds()}
	}
	b := httpapi.NewMetricsBuilder("serve").
		Runtime(s.metrics.start).
		Gauge("shiftex_serve_uptime_seconds", "Time since the server started.", m.UptimeSeconds).
		CounterVec("shiftex_serve_requests_total", "Predictions served, by outcome.",
			httpapi.Sample{Labels: `outcome="ok"`, Value: float64(m.Requests)},
			httpapi.Sample{Labels: `outcome="error"`, Value: float64(m.Errored)},
			httpapi.Sample{Labels: `outcome="rejected"`, Value: float64(m.Rejected)}).
		Gauge("shiftex_serve_inflight", "Requests admitted but not yet answered.", float64(m.Inflight)).
		GaugeVec("shiftex_serve_latency_seconds", "Request latency quantiles (exemplar: slowest traced request).",
			httpapi.Sample{Labels: `quantile="0.5"`, Value: m.P50Seconds},
			httpapi.Sample{Labels: `quantile="0.9"`, Value: m.P90Seconds},
			httpapi.Sample{Labels: `quantile="0.99"`, Value: m.P99Seconds, Exemplar: exemplar}).
		CounterVec("shiftex_serve_routed_total", "Routing decisions, by kind.",
			httpapi.Sample{Labels: `kind="matched"`, Value: float64(m.Matched)},
			httpapi.Sample{Labels: `kind="fallback"`, Value: float64(m.Fallbacks)}).
		CounterVec("shiftex_serve_route_cache_total", "LRU route-cache lookups (bypass = cache disabled, request routed by the batched encoder).",
			httpapi.Sample{Labels: `result="hit"`, Value: float64(m.CacheHits)},
			httpapi.Sample{Labels: `result="miss"`, Value: float64(m.CacheMisses)},
			httpapi.Sample{Labels: `result="bypass"`, Value: float64(m.CacheBypass)}).
		GaugeVec("shiftex_serve_route_epsilon", "Match radius, calibrated (training ε) vs effective (ε × route-eps-scale, what routing compares against).",
			httpapi.Sample{Labels: `scope="calibrated"`, Value: snap.Epsilon},
			httpapi.Sample{Labels: `scope="effective"`, Value: snap.RouteEpsilon()}).
		GaugeVec("shiftex_serve_expert_route_epsilon", "Effective match radius per expert (0 = no latent-memory signature, fallback-only).", epsSamples...).
		Gauge("shiftex_serve_snapshot_version", "Serving snapshot version (increments on hot swap).", float64(snap.Version)).
		Gauge("shiftex_serve_experts", "Experts in the serving snapshot.", float64(snap.NumExperts())).
		Counter("shiftex_serve_batches_total", "Micro-batches drained by the worker pool.", float64(m.Batches)).
		Gauge("shiftex_serve_batch_mean_size", "Mean requests per drained batch.", m.MeanBatch)
	// Batch-size distribution: the pipeline's honesty meter. Mass in the
	// le="1" bucket means the server is not actually batching, whatever
	// its throughput numbers claim.
	bounds, counts, batchedSum, _ := s.metrics.BatchSizeHistogram()
	fb := make([]float64, len(bounds))
	for i, v := range bounds {
		fb[i] = float64(v)
	}
	b.Histogram("shiftex_serve_batch_size", "Requests per drained micro-batch.", fb, counts, float64(batchedSum))
	// Per-expert traffic share: the denominator drift series are read
	// against. Every completed request counts under its serving expert's
	// training-time ID, fallback-served included.
	if ids, reqCounts := s.metrics.ExpertRequests(); len(ids) > 0 {
		reqSamples := make([]httpapi.Sample, len(ids))
		for i, id := range ids {
			reqSamples[i] = httpapi.Sample{
				Labels: fmt.Sprintf("expert=%q", strconv.Itoa(id)), Value: float64(reqCounts[i]),
			}
		}
		b.CounterVec("shiftex_serve_expert_requests_total", "Predictions served per expert (by training-time ID), fallback-served included.", reqSamples...)
	}
	if mon := s.cfg.Monitor; mon != nil {
		sum := mon.Summary()
		expSamples := make([]httpapi.Sample, 0, len(sum.Experts))
		for _, e := range sum.Experts {
			expSamples = append(expSamples, httpapi.Sample{
				Labels: fmt.Sprintf("expert=%q", strconv.Itoa(e.ID)), Value: e.Score,
			})
		}
		b.Gauge("shiftex_monitor_drift_score", "Latest global drift score: detector statistic over the recent embedding window vs the post-swap baseline, normalized by the self-calibrated null quantile δ.", sum.Score).
			Gauge("shiftex_monitor_drift_threshold", "Normalized score level that counts as a drift crossing.", sum.Threshold).
			Counter("shiftex_monitor_crossings_total", "Drift evaluations whose score crossed the threshold.", float64(sum.Crossings)).
			Counter("shiftex_monitor_evals_total", "Drift evaluations run.", float64(sum.Evals)).
			Counter("shiftex_monitor_samples_total", "Routed samples folded into the monitor's sketches.", float64(sum.Samples)).
			Counter("shiftex_monitor_dropped_total", "Samples lost to monitor backpressure (drop-oldest queue or freelist exhaustion).", float64(sum.Dropped)).
			Gauge("shiftex_monitor_queue_depth", "Blocks waiting in the monitor hand-off queue.", float64(mon.QueueDepth())).
			Gauge("shiftex_monitor_fallback_rate", "EWMA of the per-batch fallback-served fraction seen by the monitor.", sum.FallbackRate).
			Gauge("shiftex_monitor_cache_bypass_share", "EWMA share of traffic reaching batched routing (and therefore the monitor) rather than the route cache.", sum.CacheBypassShare)
		if len(expSamples) > 0 {
			b.GaugeVec("shiftex_monitor_expert_drift_score", "Per-expert drift: squared distance of the expert's live embedding mean from its latent memory, over the effective routing radius (≥1 = live mean outside the radius).", expSamples...)
		}
		if len(sum.MarginBuckets) > 0 {
			b.Histogram("shiftex_monitor_margin", "Match margin per routed sample: best-signature squared distance over the effective radius (≤1 matched inside the radius).", monitor.MarginBounds(), sum.MarginBuckets, sum.MarginSum)
		}
	}
	if rep := s.Adaptation(); rep != nil {
		cs := rep.ContinualState()
		phases := [...]string{"idle", "adapting", "validating", "cooldown"}
		phSamples := make([]httpapi.Sample, len(phases))
		for i, ph := range phases {
			v := 0.0
			if cs.Phase == ph {
				v = 1
			}
			phSamples[i] = httpapi.Sample{Labels: fmt.Sprintf("phase=%q", ph), Value: v}
		}
		b.GaugeVec("shiftex_continual_phase", "Adaptation controller state machine (exactly one phase is 1).", phSamples...).
			Gauge("shiftex_continual_consecutive_crossed", "Crossed drift evaluations since the last clean one (a window triggers at the hysteresis count).", float64(cs.ConsecutiveCrossed)).
			Gauge("shiftex_continual_cooldown_remaining_seconds", "Seconds until the controller honors crossings again (0 outside cooldown).", cs.CooldownRemainingSeconds).
			CounterVec("shiftex_continual_triggers_total", "Confirmed drift crossings, by disposition (fired = started a window; suppressed = coalesced into an in-flight window or cooldown).",
				httpapi.Sample{Labels: `disposition="fired"`, Value: float64(cs.Triggers)},
				httpapi.Sample{Labels: `disposition="suppressed"`, Value: float64(cs.TriggersSuppressed)}).
			CounterVec("shiftex_continual_windows_total", "Live adaptation windows, by outcome.",
				httpapi.Sample{Labels: `outcome="completed"`, Value: float64(cs.WindowsCompleted)},
				httpapi.Sample{Labels: `outcome="rolled_back"`, Value: float64(cs.WindowsRolledBack)},
				httpapi.Sample{Labels: `outcome="rejected"`, Value: float64(cs.WindowsRejected)})
	}
	b.ServeMetrics(w, r)
}
