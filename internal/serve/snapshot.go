// Package serve is the inference-serving tier of the ShiftEx middleware:
// it loads a trained aggregator checkpoint into an immutable ModelSnapshot,
// routes each prediction request to the expert whose latent memory best
// matches the request's embedding signature (falling back to the global
// bootstrap model), and runs predictions through a micro-batching worker
// pool of zero-allocation nn workspaces. Snapshots hot-swap atomically, so
// a running server picks up new checkpoints without dropping a request.
//
// The training side of the system (internal/service) answers "does the
// middleware adapt"; this package answers "does the adapted mixture serve"
// — it is the request path in front of the expert pool, mirroring the
// paper's deployment story of a routing tier over backend models.
package serve

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Expert is one immutable serving model: the trained parameters
// materialized as an MLP plus the latent-memory signature routing matches
// against. Fields are never mutated after the snapshot is built.
type Expert struct {
	ID     int
	Model  *nn.MLP
	Memory tensor.Vector // nil when the expert has no signature (never routed to by match)
}

// Snapshot is the immutable serving view of one aggregator checkpoint: all
// experts, the frozen encoder used for request embedding, the latent-memory
// reuse threshold ε, and the party→expert assignment recorded at training
// time (used by the load generator to score routing decisions). A Snapshot
// is safe for unbounded concurrent readers; hot swap replaces the whole
// pointer (Server.Swap), and requests already routed against the old
// snapshot finish on it.
type Snapshot struct {
	// Version distinguishes snapshots across hot swaps (monotonic per
	// server, assigned at swap time; 1 for a server's first snapshot).
	Version int
	// Arch is the full layer-width list shared by encoder and experts.
	Arch []int
	// Epsilon is the reuse threshold a match distance is compared against.
	Epsilon float64
	// WindowsDone is the stream position the checkpoint was taken at.
	WindowsDone int
	// Seed is the training run's seed (the load generator regenerates the
	// run's scenario from it).
	Seed uint64
	// Policy is the adaptation policy the checkpointed run executed
	// (schema-1 checkpoints resolve to the default policy name). Serving
	// never runs the policy — the snapshot is frozen — but records it so
	// operators can tell which stage set produced the expert pool.
	Policy string

	experts  []Expert
	byID     map[int]int     // expert ID -> index into experts
	memories []tensor.Vector // parallel to experts, nil where signature-less
	// radii is a per-expert acceptance-radius override, parallel to experts
	// (nil when no expert carries one; zero entries fall back to the shared
	// effective radius). Live-created experts need it: their memories are
	// centroids of single-request embeddings, whose spread around the
	// centroid is far wider than the window-mean spread ε was calibrated
	// on, so the continual trainer stamps each new expert with a radius
	// calibrated from the live sample itself (SetExpertRadius). An override
	// only ever widens acceptance — matching uses max(routeEps, radius).
	radii    []float64
	encoder  *nn.MLP
	fallback int // index of the global fallback expert (lowest ID)
	// routeEps is the effective match threshold Route compares against:
	// Epsilon times the server's RouteEpsilonScale. Zero (a snapshot not
	// yet adopted by a server) means raw Epsilon.
	routeEps float64

	assignment map[int]int // party -> expert ID at checkpoint time
}

// NewSnapshot builds a serving snapshot from an exported aggregator state.
// The state must be post-bootstrap: it needs at least one expert and the
// frozen encoder (routing embeds requests through it). Expert parameters
// are cloned into fresh models, so the snapshot shares no storage with the
// aggregator that produced the state.
func NewSnapshot(arch []int, st shiftex.State) (*Snapshot, error) {
	if len(arch) < 3 {
		return nil, fmt.Errorf("serve: invalid arch %v", arch)
	}
	if len(st.Experts) == 0 {
		return nil, errors.New("serve: state has no experts (checkpoint precedes bootstrap?)")
	}
	if st.Encoder == nil {
		return nil, errors.New("serve: state has no frozen encoder (required for request routing)")
	}
	s := &Snapshot{
		Arch:    append([]int(nil), arch...),
		Epsilon: st.Epsilon,
		byID:    make(map[int]int, len(st.Experts)),
	}
	var err error
	if s.encoder, err = modelFromParams(arch, st.Encoder); err != nil {
		return nil, fmt.Errorf("serve: encoder: %w", err)
	}
	s.fallback = -1
	for _, es := range st.Experts {
		m, err := modelFromParams(arch, es.Params)
		if err != nil {
			return nil, fmt.Errorf("serve: expert %d: %w", es.ID, err)
		}
		e := Expert{ID: es.ID, Model: m}
		if es.Memory != nil {
			e.Memory = es.Memory.Clone()
		}
		s.byID[e.ID] = len(s.experts)
		s.experts = append(s.experts, e)
		s.memories = append(s.memories, e.Memory)
		if s.fallback < 0 || e.ID < s.experts[s.fallback].ID {
			s.fallback = len(s.experts) - 1
		}
	}
	if len(st.Assignment) > 0 {
		s.assignment = make(map[int]int, len(st.Assignment))
		for p, id := range st.Assignment {
			s.assignment[p] = id
		}
	}
	return s, nil
}

// SnapshotFromCheckpoint builds a serving snapshot from a service
// checkpoint (the file cmd/shiftex-aggregator writes after every window).
func SnapshotFromCheckpoint(cp *service.Checkpoint) (*Snapshot, error) {
	s, err := NewSnapshot(cp.Arch, cp.Aggregator)
	if err != nil {
		return nil, err
	}
	s.WindowsDone = cp.WindowsDone
	s.Seed = cp.Seed
	s.Policy = cp.PolicyName()
	return s, nil
}

// LoadSnapshot reads a checkpoint file and builds its serving snapshot.
func LoadSnapshot(path string) (*Snapshot, error) {
	cp, err := service.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return SnapshotFromCheckpoint(cp)
}

// modelFromParams materializes a flattened parameter vector as an MLP.
func modelFromParams(arch []int, params tensor.Vector) (*nn.MLP, error) {
	if want := nn.ParamCount(arch); len(params) != want {
		return nil, fmt.Errorf("serve: %d params for arch %v (want %d)", len(params), arch, want)
	}
	m, err := nn.NewMLP(arch, tensor.NewRNG(1))
	if err != nil {
		return nil, err
	}
	if err := m.SetParams(params); err != nil {
		return nil, err
	}
	return m, nil
}

// NumExperts returns the expert-pool size.
func (s *Snapshot) NumExperts() int { return len(s.experts) }

// Experts returns the snapshot's experts (shared storage — read only).
func (s *Snapshot) Experts() []Expert { return s.experts }

// ExpertIDs returns the training-time IDs of all experts, in pool order.
func (s *Snapshot) ExpertIDs() []int {
	ids := make([]int, len(s.experts))
	for i, e := range s.experts {
		ids[i] = e.ID
	}
	return ids
}

// ExpertByID returns the expert with the given training-time ID.
func (s *Snapshot) ExpertByID(id int) (Expert, bool) {
	i, ok := s.byID[id]
	if !ok {
		return Expert{}, false
	}
	return s.experts[i], true
}

// Fallback returns the global fallback expert: the lowest-ID expert in the
// pool, which is the bootstrap global model unless it was consolidated
// away — in which case its merge survivor inherits the role.
func (s *Snapshot) Fallback() Expert { return s.experts[s.fallback] }

// AssignedExpert returns the expert the checkpointed aggregator had
// assigned to the given party, if any.
func (s *Snapshot) AssignedExpert(party int) (int, bool) {
	id, ok := s.assignment[party]
	return id, ok
}

// InputDim returns the request feature width.
func (s *Snapshot) InputDim() int { return s.Arch[0] }

// NewWorkspace allocates a workspace fitting the snapshot's architecture —
// one serves both encoder embedding and expert prediction, since all models
// share the arch.
func (s *Snapshot) NewWorkspace() *nn.Workspace { return nn.NewWorkspaceDims(s.Arch) }

// Route picks the serving expert for one request input: it embeds x through
// the frozen encoder (into ws), matches the embedding against the expert
// memories with the same shared helper the aggregator uses, and falls back
// to the global model when no memory is within ε (or none exists). The
// returned index points into Experts(). matched reports whether a
// latent-memory match won over the fallback.
func (s *Snapshot) Route(ws *nn.Workspace, x tensor.Vector) (idx int, matched bool, err error) {
	sig, err := s.encoder.EmbedWS(ws, x)
	if err != nil {
		return 0, false, err
	}
	idx, _, matched = s.matchSignature(sig)
	return idx, matched, nil
}

// matchSignature resolves an already-computed embedding signature to a
// serving expert: the matching half of Route, shared with the worker pool's
// batched routing path (which embeds a whole batch in one GEMM and then
// matches row by row). dist is the match margin the drift monitor compares
// against the effective radius: the matched expert's squared signature
// distance, or the nearest memory's when nothing is admissible (+Inf when no
// expert has a memory to match).
func (s *Snapshot) matchSignature(sig tensor.Vector) (idx int, dist float64, matched bool) {
	return s.matchAt(sig, s.RouteEpsilon())
}

// matchAt is the admissibility-aware matching core shared by matchSignature
// and MatchEmbedding: each expert accepts within max(eps, its radius
// override), and the nearest admissible memory wins. Nearest-overall alone
// (shiftex.MatchSignatures) is not enough once per-expert radii exist — the
// globally nearest memory can fail its own radius while a farther live
// expert with a calibrated radius would accept.
func (s *Snapshot) matchAt(sig tensor.Vector, eps float64) (idx int, dist float64, matched bool) {
	admIdx, admDist := -1, math.Inf(1)
	anyDist := math.Inf(1)
	for i, m := range s.memories {
		if m == nil {
			continue
		}
		d := stats.MeanEmbeddingMMD(sig, m)
		if d < anyDist {
			anyDist = d
		}
		if d <= s.acceptRadius(i, eps) && d < admDist {
			admIdx, admDist = i, d
		}
	}
	if admIdx >= 0 {
		return admIdx, admDist, true
	}
	return s.fallback, anyDist, false
}

// acceptRadius is expert i's acceptance threshold under the shared radius
// eps: its calibrated override when that is wider.
func (s *Snapshot) acceptRadius(i int, eps float64) float64 {
	if s.radii != nil && s.radii[i] > eps {
		return s.radii[i]
	}
	return eps
}

// MatchEmbedding resolves an already-computed embedding against the expert
// memories under an explicit shared acceptance radius (per-expert overrides
// still apply), returning the winning expert's training-time ID (the
// fallback's when nothing is admissible). The continual controller's
// validation gate uses it to score candidate and serving snapshots on the
// same held-back live embeddings under the same radius — a candidate's
// routeEps is not stamped until Swap adopts it, so the radius must come from
// the caller.
func (s *Snapshot) MatchEmbedding(sig tensor.Vector, eps float64) (id int, dist float64, matched bool) {
	i, dist, ok := s.matchAt(sig, eps)
	if !ok {
		return s.experts[s.fallback].ID, dist, false
	}
	return s.experts[i].ID, dist, true
}

// SetExpertRadius stamps a per-expert acceptance-radius override (in the
// squared signature-distance space routing compares in). It reports whether
// the expert exists and the radius is positive. Call it only while building
// a snapshot, before the snapshot is published to a server — published
// snapshots are immutable.
func (s *Snapshot) SetExpertRadius(id int, r float64) bool {
	i, ok := s.byID[id]
	if !ok || r <= 0 {
		return false
	}
	if s.radii == nil {
		s.radii = make([]float64, len(s.memories))
	}
	s.radii[i] = r
	return true
}

// ExpertRadius returns the expert's acceptance-radius override, or 0 when it
// uses the shared effective radius.
func (s *Snapshot) ExpertRadius(id int) float64 {
	i, ok := s.byID[id]
	if !ok || s.radii == nil {
		return 0
	}
	return s.radii[i]
}

// MonitorReference builds the drift monitor's scoring reference from this
// snapshot: embedding dimensionality, effective routing radius, and every
// expert's latent memory. The server installs it on adoption and on every
// hot swap, which resets the monitor's sketches to the new snapshot.
func (s *Snapshot) MonitorReference() monitor.Reference {
	ref := monitor.Reference{
		SnapshotVersion: s.Version,
		Dim:             s.Arch[len(s.Arch)-2],
		Epsilon:         s.Epsilon,
		RouteEpsilon:    s.RouteEpsilon(),
		Experts:         make([]monitor.ExpertRef, 0, len(s.experts)),
	}
	for _, e := range s.experts {
		ref.Experts = append(ref.Experts, monitor.ExpertRef{ID: e.ID, Memory: e.Memory})
	}
	return ref
}

// RouteEpsilon returns the effective match threshold Route uses.
func (s *Snapshot) RouteEpsilon() float64 {
	if s.routeEps != 0 {
		return s.routeEps
	}
	return s.Epsilon
}
