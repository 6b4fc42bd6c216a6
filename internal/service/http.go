package service

import (
	"net/http"

	"repro/internal/httpapi"
	"repro/internal/telemetry"
)

// Handler returns the runtime's observability surface, versioned under /v1:
//
//	/v1/healthz  liveness + stream position (JSON, always 200 while serving)
//	/v1/state    shared httpapi.State envelope with the aggregator section
//	/v1/metrics  Prometheus text (or shared JSON schema with ?format=json)
//
// Unknown routes, the retired unversioned ones included, answer 404 with
// the live /v1 listing. Handlers read locked snapshots only, so
// they are safe to serve while a window is running.
func (r *Runtime) Handler() http.Handler {
	api := httpapi.NewAPI()
	api.Handle("/v1/healthz", r.handleHealthz)
	api.Handle("/v1/state", r.handleState)
	api.Handle("/v1/metrics", r.handleMetrics)
	api.Handle("/v1/debug/traces", telemetry.TracesHandler(r.opts.Tracer).ServeHTTP)
	return api.Handler()
}

// phase reports where the runtime is in its stream: bootstrapping before
// window 0 completes, adapting during the stream, done after the last
// window.
func (r *Runtime) phase() (string, int) {
	r.mu.Lock()
	next := r.nextWindow
	r.mu.Unlock()
	switch {
	case next == 0:
		return "bootstrapping", next
	case next >= r.opts.Windows:
		return "done", next
	}
	return "adapting", next
}

func (r *Runtime) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	phase, next := r.phase()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"phase":         phase,
		"nextWindow":    next,
		"windowsTotal":  r.opts.Windows,
		"parties":       r.fleet.NumParties(),
		"uptimeSeconds": r.metrics.Snapshot().UptimeSeconds,
	})
}

func (r *Runtime) handleState(w http.ResponseWriter, _ *http.Request) {
	phase, _ := r.phase()
	r.mu.Lock()
	st := r.status
	reports := len(r.reports)
	r.mu.Unlock()
	m := r.metrics.Snapshot()
	httpapi.WriteJSON(w, http.StatusOK, httpapi.State{
		SchemaVersion: httpapi.SchemaVersion,
		Daemon:        "aggregator",
		Status:        "ok",
		UptimeSeconds: m.UptimeSeconds,
		Aggregator: &httpapi.AggregatorState{
			Phase:        phase,
			Window:       st.Window,
			WindowsDone:  reports,
			WindowsTotal: r.opts.Windows,
			Parties:      r.fleet.NumParties(),
			Policy:       r.agg.PolicyName(),
			Experts:      st.Experts,
			Distribution: st.Distribution,
			Assignments:  st.Assignments,
			Epsilon:      st.Epsilon,
			Thresholds:   st.Thresholds,
			LastTrace:    st.Trace,
		},
	})
}

func (r *Runtime) handleMetrics(w http.ResponseWriter, req *http.Request) {
	s := r.metrics.Snapshot()
	b := httpapi.NewMetricsBuilder("aggregator").
		Runtime(r.metrics.start).
		Gauge("shiftex_uptime_seconds", "Time since the runtime started.", s.UptimeSeconds).
		Counter("shiftex_windows_completed", "Stream windows completed.", float64(s.WindowsDone)).
		Counter("shiftex_rounds_total", "Federated training rounds completed.", float64(s.RoundsTotal)).
		Counter("shiftex_rounds_failed_total", "Rounds that missed quorum.", float64(s.RoundsFailed)).
		GaugeVec("shiftex_round_latency_seconds", "Wall-clock time of a training round.",
			httpapi.Sample{Labels: `stat="last"`, Value: s.RoundLatencyLastS},
			httpapi.Sample{Labels: `stat="mean"`, Value: s.RoundLatencyMeanS}).
		Gauge("shiftex_experts", "Expert-pool size after the last window.", float64(s.ExpertPoolSize)).
		Counter("shiftex_experts_created_total", "Experts spawned for shifted clusters.", float64(s.ExpertsCreated)).
		Counter("shiftex_experts_merged_total", "Experts removed by consolidation.", float64(s.ExpertsMerged)).
		CounterVec("shiftex_shift_events_total", "Per-party shift detections.",
			httpapi.Sample{Labels: `kind="covariate"`, Value: float64(s.ShiftEventsCov)},
			httpapi.Sample{Labels: `kind="label"`, Value: float64(s.ShiftEventsLabel)}).
		Counter("shiftex_party_failures_total", "Party calls that exhausted retries.", float64(s.PartyFailures)).
		Counter("shiftex_round_stragglers_total", "Selected parties that missed rounds tolerated by quorum.", float64(s.StragglersTotal)).
		Counter("shiftex_checkpoints_written_total", "Checkpoint files committed.", float64(s.CheckpointsWritten))
	b.ServeMetrics(w, req)
}
