package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/telemetry"
)

// Handler returns the gateway API — the same /v1 surface a single serve
// replica exposes, plus the fleet-management routes:
//
//	POST /v1/predict        routed to the input's ring-owner replica
//	GET  /v1/snapshot       proxied summary (?model=name selects the model)
//	POST /v1/snapshot       quorum hot-swap broadcast to a model's replicas
//	GET  /v1/models/{name}  model card + replica fleet standing
//	POST /v1/replicas       {"model","addr"} runtime replica registration
//	GET  /v1/state          shared httpapi.State envelope, gateway section
//	GET  /v1/healthz        liveness
//	GET  /v1/metrics        Prometheus text (shared JSON with ?format=json)
//
// The "predict" middleware chain wraps /v1/predict; the "admin" chain wraps snapshot swap and replica
// registration. Observability routes are unchained so a misbehaving rate
// limit can never blind the operator diagnosing it.
func (g *Gateway) Handler() http.Handler {
	api := httpapi.NewAPI()
	predict := g.traceWrap(RoutePredict, g.chains[RoutePredict], http.HandlerFunc(g.handlePredict))
	admin := func(h http.HandlerFunc) http.Handler {
		return g.traceWrap(RouteAdmin, g.chains[RouteAdmin], h)
	}
	api.Handle("/v1/predict", predict.ServeHTTP)
	api.Handle("/v1/snapshot", admin(g.handleSnapshot).ServeHTTP)
	api.Handle("/v1/models/{name}", g.handleModel)
	api.Handle("/v1/replicas", admin(g.handleReplicas).ServeHTTP)
	api.Handle("/v1/state", g.handleState)
	api.Handle("/v1/healthz", g.handleHealthz)
	api.Handle("/v1/metrics", g.handleMetrics)
	api.Handle("/v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		// Read g.tracer per request: SetTracer may run after Handler.
		telemetry.TracesHandler(g.tracer).ServeHTTP(w, r)
	})
	return api.Handler()
}

// mwSpanKey carries the middleware span from traceWrap's outer layer to
// the boundary handler that closes it with an "allowed" verdict.
type mwSpanKey struct{}

// traceWrap runs a middleware chain inside a trace: the request roots
// (or continues, via an inbound traceparent) a gateway.<group> span, a
// gateway.middleware child measures chain traversal, and the verdict
// attribute records whether the chain admitted the request or which
// status it was rejected with. A malformed inbound traceparent is
// replaced with a fresh trace, never propagated.
func (g *Gateway) traceWrap(group string, chain Middleware, final http.Handler) http.Handler {
	boundary := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mw, _ := r.Context().Value(mwSpanKey{}).(*telemetry.Span); mw != nil {
			mw.SetAttr("verdict", "allowed")
			mw.End()
		}
		final.ServeHTTP(w, r)
	})
	inner := chain(boundary)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.tracer == nil {
			inner.ServeHTTP(w, r)
			return
		}
		root := g.tracer.StartFromRequest("gateway."+group, r)
		mw := root.Child("gateway.middleware")
		mw.SetAttr("chain", strings.Join(g.cfg.Middlewares[group], ","))
		ctx := telemetry.ContextWithSpan(r.Context(), root)
		ctx = context.WithValue(ctx, mwSpanKey{}, mw)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inner.ServeHTTP(rec, r.WithContext(ctx))
		// If the boundary never ran, the chain rejected the request; the
		// idempotent End makes this a no-op on the allowed path.
		mw.SetAttr("verdict", fmt.Sprintf("rejected:%d", rec.status))
		mw.End()
		root.SetAttrInt("http.status", int64(rec.status))
		root.End()
	})
}

// writeUnknownModel answers an unknown-model error with the live model
// vocabulary, mirroring the serve tier's single-model answer.
func (g *Gateway) writeUnknownModel(w http.ResponseWriter, name string) {
	httpapi.WriteJSON(w, http.StatusNotFound, httpapi.ErrorBody{
		Error:  fmt.Sprintf("unknown model %q", name),
		Models: g.reg.names(),
	})
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
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
	resp, status, err := g.Predict(r.Context(), req.Model, req.X)
	if err != nil {
		if errors.Is(err, errUnknownModel) {
			g.writeUnknownModel(w, req.Model)
			return
		}
		var ce *clientError
		if errors.As(err, &ce) {
			httpapi.WriteJSON(w, ce.status, ce.body)
			return
		}
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		httpapi.WriteError(w, status, err.Error())
		return
	}
	httpapi.WriteJSON(w, status, resp)
}

func (g *Gateway) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		name := r.URL.Query().Get("model")
		m := g.reg.model(name)
		if m == nil {
			g.writeUnknownModel(w, name)
			return
		}
		sum, err := g.anySnapshot(r.Context(), m)
		if err != nil {
			httpapi.WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, sum)
	case http.MethodPost:
		var req httpapi.SwapRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || req.Path == "" {
			httpapi.WriteError(w, http.StatusBadRequest, `body must be {"path":"checkpoint.json"}`)
			return
		}
		sum, status, err := g.BroadcastSwap(r.Context(), req.Model, req.Path)
		if err != nil {
			if errors.Is(err, errUnknownModel) {
				g.writeUnknownModel(w, req.Model)
				return
			}
			httpapi.WriteError(w, status, err.Error())
			return
		}
		httpapi.WriteJSON(w, status, sum)
	default:
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

func (g *Gateway) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	name := r.PathValue("name")
	card, status, err := g.ModelCard(r.Context(), name)
	if err != nil {
		if errors.Is(err, errUnknownModel) {
			g.writeUnknownModel(w, name)
			return
		}
		httpapi.WriteError(w, status, err.Error())
		return
	}
	httpapi.WriteJSON(w, status, card)
}

// handleReplicas implements runtime registration: a freshly started serve
// replica POSTs {"model","addr"} and is probed into the fleet.
func (g *Gateway) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		Model string `json:"model,omitempty"`
		Addr  string `json:"addr"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.Addr == "" {
		httpapi.WriteError(w, http.StatusBadRequest, `body must be {"addr":"host:port","model":"name"?}`)
		return
	}
	st, err := g.Register(r.Context(), req.Model, req.Addr)
	if err != nil {
		// Registered but unreachable: tell the replica so it retries,
		// keep the registration (the prober re-admits it when it comes
		// up).
		httpapi.WriteJSON(w, http.StatusAccepted, st)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, st)
}

func (g *Gateway) handleState(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, httpapi.State{
		SchemaVersion: httpapi.SchemaVersion,
		Daemon:        "gateway",
		Status:        "ok",
		UptimeSeconds: g.uptimeSeconds(),
		Gateway:       ptr(g.State()),
	})
}

func ptr[T any](v T) *T { return &v }

func (g *Gateway) uptimeSeconds() float64 { return time.Since(g.start).Seconds() }

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	total := 0
	for _, m := range g.reg.all() {
		st := m.state()
		healthy += st.HealthyReplicas
		total += len(st.Replicas)
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"models":          len(g.reg.names()),
		"replicas":        total,
		"healthyReplicas": healthy,
		"uptimeSeconds":   g.uptimeSeconds(),
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := g.State()
	perModel := make([]httpapi.Sample, 0, len(st.Models))
	affinity := make([]httpapi.Sample, 0, len(st.Models))
	for _, m := range st.Models {
		perModel = append(perModel, httpapi.Sample{
			Labels: fmt.Sprintf("model=%q", m.Name), Value: float64(m.HealthyReplicas),
		})
		if m.LastShrink != nil {
			affinity = append(affinity, httpapi.Sample{
				Labels: fmt.Sprintf("model=%q", m.Name), Value: m.LastShrink.RetainedOfSurvivors,
			})
		}
	}
	b := httpapi.NewMetricsBuilder("gateway").
		Runtime(g.start).
		Gauge("shiftex_gateway_uptime_seconds", "Time since the gateway started.", g.uptimeSeconds()).
		CounterVec("shiftex_gateway_requests_total", "Predict requests, by outcome.",
			httpapi.Sample{Labels: `outcome="ok"`, Value: float64(st.Requests - st.Errors)},
			httpapi.Sample{Labels: `outcome="error"`, Value: float64(st.Errors)},
			httpapi.Sample{Labels: `outcome="rejected"`, Value: float64(st.Rejected)}).
		CounterVec("shiftex_gateway_session_cache_total", "Fleet-wide session-cache lookups.",
			httpapi.Sample{Labels: `result="hit"`, Value: float64(st.SessionHits)},
			httpapi.Sample{Labels: `result="miss"`, Value: float64(st.SessionMisses)}).
		Counter("shiftex_gateway_failovers_total", "Predicts answered by a ring successor after the owner failed.", float64(st.Failovers)).
		Counter("shiftex_gateway_evictions_total", "Replicas evicted from a ring after consecutive failures.", float64(st.Evictions)).
		Counter("shiftex_gateway_readmissions_total", "Evicted replicas re-admitted after answering again.", float64(st.Readmissions)).
		Gauge("shiftex_gateway_models", "Registered models.", float64(len(st.Models))).
		Gauge("shiftex_gateway_session_cache_entries", "Answers in the session cache.", float64(g.session.lru.Len()))
	if len(perModel) > 0 {
		b.GaugeVec("shiftex_gateway_healthy_replicas", "Healthy replicas per model.", perModel...)
	}
	if len(affinity) > 0 {
		b.GaugeVec("shiftex_gateway_shrink_retained", "Fraction of surviving-owner keys retained across the last fleet shrink.", affinity...)
	}
	b.ServeMetrics(w, r)
}
