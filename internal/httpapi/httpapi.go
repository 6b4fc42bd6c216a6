// Package httpapi is the versioned HTTP surface shared by every ShiftEx
// daemon (shiftex-aggregator, shiftex-serve, shiftex-gateway). It owns three
// things so the daemons cannot drift apart:
//
//   - the wire schema: one struct per endpoint payload (PredictRequest,
//     PredictResponse, SnapshotSummary, ModelInfo, the State envelope), each
//     stamped with SchemaVersion, so operators scrape all daemons
//     identically and a gateway can proxy a replica's response verbatim;
//   - the /v1 route table: API registers handlers under /v1 and answers
//     unknown paths with a 404 that lists the live /v1 surface;
//   - the metrics encoder: MetricsBuilder renders one metric set as both
//     Prometheus text exposition and the JSON schema (?format=json).
//
// The package depends only on the tensor wire types — service, serve, and
// gateway all import it, never the other way around.
package httpapi

import (
	"encoding/json"
	"net/http"

	"repro/internal/tensor"
)

// SchemaVersion is the version of the shared daemon HTTP schema: the /v1
// route shapes and the JSON payload layouts below. It is bumped whenever
// either changes incompatibly, and every envelope payload carries it.
const SchemaVersion = 1

// V1Prefix is the path prefix of the current API version.
const V1Prefix = "/v1"

// DefaultModel is the model name a single-model daemon serves under when
// none is configured, and the name model-less predict requests resolve to.
const DefaultModel = "default"

// WriteJSON writes v as indented JSON with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ErrorBody is the uniform error payload. Models/Routes carry the live
// vocabulary when the error is "unknown name" — the same convention the
// adaptation-policy registry uses on the CLI.
type ErrorBody struct {
	Error  string   `json:"error"`
	Models []string `json:"models,omitempty"` // live model names on unknown-model errors
	Routes []string `json:"routes,omitempty"` // live /v1 surface on unknown-route errors
}

// WriteError writes the uniform error payload.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// PredictRequest is the POST /v1/predict wire format. Model is optional: a
// single-model daemon rejects a mismatching name with 404, the gateway uses
// it to pick the target model ("" resolves to DefaultModel on both).
type PredictRequest struct {
	X     tensor.Vector `json:"x"`
	Model string        `json:"model,omitempty"`
}

// PredictResponse is the POST /v1/predict reply. Serve replicas leave
// Replica and GatewayCached zero; the gateway fills Replica with the serving
// replica's address and sets GatewayCached when the fleet-wide session cache
// answered without touching any replica. Cached reports the replica-local
// route cache.
type PredictResponse struct {
	Class    int    `json:"class"`
	Expert   int    `json:"expert"`
	Matched  bool   `json:"matched"`
	Cached   bool   `json:"cached"`
	Snapshot int    `json:"snapshot"`
	Model    string `json:"model"`
	// Gateway-only fields.
	Replica       string `json:"replica,omitempty"`
	GatewayCached bool   `json:"gatewayCached,omitempty"`
}

// SwapRequest is the POST /v1/snapshot wire format: hot-swap the serving
// snapshot to the given checkpoint path. Model is optional, as in
// PredictRequest; on the gateway the swap fans out to the model's replicas.
type SwapRequest struct {
	Path  string `json:"path"`
	Model string `json:"model,omitempty"`
}

// SnapshotSummary is the GET /v1/snapshot payload (and the POST reply): the
// serving snapshot's identity and routing parameters. The gateway proxies a
// healthy replica's summary, so single-model deployments see identical
// bodies from both tiers.
type SnapshotSummary struct {
	SchemaVersion int    `json:"schemaVersion"`
	Model         string `json:"model"`
	Version       int    `json:"version"`
	Experts       int    `json:"experts"`
	ExpertIDs     []int  `json:"expertIds"`
	Fallback      int    `json:"fallback"`
	// Epsilon is the calibrated reuse threshold from training;
	// RouteEpsilon is the effective match radius serving actually compares
	// against (Epsilon × route-eps-scale) — keeping both visible is what
	// makes routing numbers debuggable.
	Epsilon      float64 `json:"epsilon"`
	RouteEpsilon float64 `json:"routeEpsilon"`
	WindowsDone  int     `json:"windowsDone"`
	InputDim     int     `json:"inputDim"`
	Policy       string  `json:"policy,omitempty"`
}

// ReplicaInfo is one serve replica's standing inside a gateway model entry.
type ReplicaInfo struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Snapshot int    `json:"snapshot"` // last snapshot version observed by probing
	Failures int    `json:"failures"` // consecutive call/probe failures
	// DriftScore is the replica's latest calibrated drift score scraped
	// from /v1/debug/drift (score ≥ threshold means the replica's live
	// traffic has left its training distribution). DriftSeen distinguishes
	// a genuine 0 score from a replica with no monitor or no scrape yet.
	DriftScore float64 `json:"driftScore,omitempty"`
	DriftSeen  bool    `json:"driftSeen,omitempty"`
	// AdaptPhase is the replica's continual-adaptation phase scraped from
	// /v1/debug/adapt ("" when no controller is attached or no scrape has
	// landed yet — AdaptSeen distinguishes the two); AdaptWindows is its
	// completed-window count.
	AdaptPhase   string `json:"adaptPhase,omitempty"`
	AdaptWindows uint64 `json:"adaptWindows,omitempty"`
	AdaptSeen    bool   `json:"adaptSeen,omitempty"`
}

// ModelInfo is the GET /v1/models/{name} payload. A serve replica reports
// itself (Replicas empty); the gateway adds the replica fleet view.
type ModelInfo struct {
	SchemaVersion int     `json:"schemaVersion"`
	Name          string  `json:"name"`
	Snapshot      int     `json:"snapshot"`
	Experts       int     `json:"experts"`
	Epsilon       float64 `json:"epsilon"`
	RouteEpsilon  float64 `json:"routeEpsilon"`
	WindowsDone   int     `json:"windowsDone"`
	InputDim      int     `json:"inputDim"`
	Policy        string  `json:"policy,omitempty"`
	// Gateway-only fields.
	Replicas []ReplicaInfo `json:"replicas,omitempty"`
}

// State is the shared /v1/state envelope: one struct scraped identically
// from every daemon, with exactly one daemon-specific section populated.
type State struct {
	SchemaVersion int     `json:"schemaVersion"`
	Daemon        string  `json:"daemon"` // "aggregator" | "serve" | "gateway"
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`

	Aggregator *AggregatorState `json:"aggregator,omitempty"`
	Serve      *ServeState      `json:"serve,omitempty"`
	Gateway    *GatewayState    `json:"gateway,omitempty"`
}

// AggregatorState is the aggregator runtime's /v1/state section.
type AggregatorState struct {
	Phase        string      `json:"phase"`
	Window       int         `json:"window"`
	WindowsDone  int         `json:"windowsDone"`
	WindowsTotal int         `json:"windowsTotal"`
	Parties      int         `json:"parties"`
	Policy       string      `json:"policy"`
	Experts      []int       `json:"experts"`
	Distribution map[int]int `json:"distribution"`
	Assignments  map[int]int `json:"assignments"`
	Epsilon      float64     `json:"epsilon"`
	Thresholds   any         `json:"thresholds,omitempty"`
	LastTrace    []float64   `json:"lastTrace,omitempty"`
}

// ServeState is the serving replica's /v1/state section.
type ServeState struct {
	Model        string  `json:"model"`
	Snapshot     int     `json:"snapshot"`
	Experts      int     `json:"experts"`
	Epsilon      float64 `json:"epsilon"`
	RouteEpsilon float64 `json:"routeEpsilon"`
	WindowsDone  int     `json:"windowsDone"`
	Requests     uint64  `json:"requests"`
	Inflight     int64   `json:"inflight"`
	// Continual is the attached adaptation controller's state machine; nil
	// when the replica serves a frozen snapshot (no controller).
	Continual *ContinualState `json:"continual,omitempty"`
}

// ContinualState is the adaptation controller's state-machine view: the
// /v1/state continual section, the payload of /v1/debug/adapt, and the
// source of the shiftex_continual_* metric families.
type ContinualState struct {
	// Phase is "idle", "adapting", "validating", or "cooldown".
	Phase           string `json:"phase"`
	SnapshotVersion int    `json:"snapshotVersion"`
	// ConsecutiveCrossed counts crossed drift evaluations since the last
	// clean one; a window triggers when it reaches Hysteresis.
	ConsecutiveCrossed int     `json:"consecutiveCrossed"`
	Hysteresis         int     `json:"hysteresis"`
	CooldownSeconds    float64 `json:"cooldownSeconds"`
	// CooldownRemainingSeconds is > 0 only in the cooldown phase.
	CooldownRemainingSeconds float64 `json:"cooldownRemainingSeconds,omitempty"`
	// Triggers counts confirmed threshold crossings that started a window;
	// TriggersSuppressed counts crossings coalesced away because a window
	// was already in flight or cooldown was active.
	Triggers           uint64 `json:"triggers"`
	TriggersSuppressed uint64 `json:"triggersSuppressed"`
	// WindowsCompleted counts adaptation windows that passed validation and
	// swapped; WindowsRolledBack counts windows a stage failure rolled back;
	// WindowsRejected counts windows the validation gate refused to promote.
	WindowsCompleted  uint64            `json:"windowsCompleted"`
	WindowsRolledBack uint64            `json:"windowsRolledBack"`
	WindowsRejected   uint64            `json:"windowsRejected"`
	LastTrigger       *ContinualTrigger `json:"lastTrigger,omitempty"`
	LastWindow        *ContinualWindow  `json:"lastWindow,omitempty"`
}

// ContinualTrigger identifies the drift evaluation that last confirmed a
// threshold crossing and started an adaptation window.
type ContinualTrigger struct {
	Seq             int     `json:"seq"`
	Score           float64 `json:"score"`
	TeedAt          uint64  `json:"teedAt"`
	UnixNanos       int64   `json:"unixNanos"`
	SnapshotVersion int     `json:"snapshotVersion"`
}

// ContinualWindow summarizes the most recent adaptation window attempt.
type ContinualWindow struct {
	Window           int     `json:"window"`
	StartedUnixNanos int64   `json:"startedUnixNanos"`
	DurationMs       float64 `json:"durationMs"`
	ShiftedParties   int     `json:"shiftedParties"`
	NewExperts       int     `json:"newExperts"`
	Merged           int     `json:"merged"`
	ExpertsAfter     int     `json:"expertsAfter"`
	// Outcome is "swapped", "rejected" (validation gate refused promotion),
	// or "rolled-back" (a stage failed; the aggregator restored its
	// pre-window state and the serving snapshot was never touched).
	Outcome        string               `json:"outcome"`
	SwappedVersion int                  `json:"swappedVersion,omitempty"`
	Error          string               `json:"error,omitempty"`
	Validation     *ContinualValidation `json:"validation,omitempty"`
}

// ContinualValidation is the promotion gate's verdict: the candidate
// snapshot's routing quality on held-back live embeddings versus the
// currently serving snapshot's.
type ContinualValidation struct {
	Samples             int     `json:"samples"`
	BaselineMatched     float64 `json:"baselineMatched"`
	CandidateMatched    float64 `json:"candidateMatched"`
	BaselineMeanMargin  float64 `json:"baselineMeanMargin"`
	CandidateMeanMargin float64 `json:"candidateMeanMargin"`
	Passed              bool    `json:"passed"`
}

// ContinualDebugState is the GET /v1/debug/adapt payload. Enabled false (with
// State nil) means no controller is attached; the endpoint still answers 200
// so probes can distinguish "closed loop off" from "replica down".
type ContinualDebugState struct {
	SchemaVersion int             `json:"schemaVersion"`
	Model         string          `json:"model"`
	Enabled       bool            `json:"enabled"`
	State         *ContinualState `json:"state,omitempty"`
}

// GatewayModelState is one model's standing in the gateway's /v1/state.
type GatewayModelState struct {
	Name            string        `json:"name"`
	Snapshot        int           `json:"snapshot"`
	Replicas        []ReplicaInfo `json:"replicas"`
	HealthyReplicas int           `json:"healthyReplicas"`
	// VersionSkew reports that healthy replicas disagree on the snapshot
	// version they serve — a partial rollout or a failed broadcast swap;
	// affinity then decides which snapshot a client sees.
	VersionSkew bool `json:"versionSkew,omitempty"`
	// DriftMax / DriftMean aggregate the healthy replicas' scraped drift
	// scores into the fleet view (only replicas whose monitor has been
	// scraped count; both zero when none has).
	DriftMax  float64 `json:"driftMax,omitempty"`
	DriftMean float64 `json:"driftMean,omitempty"`
	// AdaptingReplicas counts healthy replicas whose controller is mid
	// window (adapting or validating); AdaptWindowsCompleted sums the
	// fleet's completed adaptation windows.
	AdaptingReplicas      int    `json:"adaptingReplicas,omitempty"`
	AdaptWindowsCompleted uint64 `json:"adaptWindowsCompleted,omitempty"`
	// Ring-affinity record of the last fleet shrink: of the keys tracked
	// when a replica left the ring, how many stayed with their original
	// owner. RetainedOfSurvivors counts only keys whose original owner is
	// still in the ring — the consistent-hashing guarantee under test.
	LastShrink *ShrinkStats `json:"lastShrink,omitempty"`
}

// ShrinkStats records key movement across one ring-membership shrink.
type ShrinkStats struct {
	Removed             string  `json:"removed"` // replica that left
	KeysTracked         int     `json:"keysTracked"`
	KeysMoved           int     `json:"keysMoved"`
	MovedFraction       float64 `json:"movedFraction"`
	RetainedOfSurvivors float64 `json:"retainedOfSurvivors"`
}

// GatewayState is the gateway's /v1/state section.
type GatewayState struct {
	Models        []GatewayModelState `json:"models"`
	Requests      uint64              `json:"requests"`
	Errors        uint64              `json:"errors"`
	Rejected      uint64              `json:"rejected"`
	SessionHits   uint64              `json:"sessionHits"`
	SessionMisses uint64              `json:"sessionMisses"`
	Failovers     uint64              `json:"failovers"`
	Evictions     uint64              `json:"evictions"`
	Readmissions  uint64              `json:"readmissions"`
	Middlewares   map[string][]string `json:"middlewares"` // route group -> chain
}
