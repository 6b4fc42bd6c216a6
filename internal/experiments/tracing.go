package experiments

import (
	"errors"
	"fmt"
)

// TracingSchemaVersion is bumped whenever the BENCH_tracing.json layout
// changes incompatibly; decoders reject other versions.
const TracingSchemaVersion = 1

// TracingArtifactName keys the tracing-overhead benchmark's artifact
// file (BENCH_tracing.json via ArtifactFileName).
const TracingArtifactName = "tracing"

// TracingOptions records the protocol of one tracing-overhead run: the
// same in-process serving workload replayed as Trials interleaved
// baseline/traced pairs — spans off versus a root span per request
// (which makes the serving pipeline record route and batch spans too).
// Each side reports its best trial, which cancels interference from
// other tenants of the host that can only ever slow a trial down.
type TracingOptions struct {
	CheckpointWindows int     `json:"checkpointWindows"`
	Arch              []int   `json:"arch"` // layer sizes of the served model, from the checkpoint
	Parties           int     `json:"parties"`
	SamplesPerParty   int     `json:"samplesPerParty"`
	TestPerParty      int     `json:"testPerParty"`
	Seed              uint64  `json:"seed"`
	Concurrency       int     `json:"concurrency"`
	Repeat            int     `json:"repeat"`
	Workers           int     `json:"workers"`
	MaxBatch          int     `json:"maxBatch"`
	MaxDelayMs        float64 `json:"maxDelayMs"`
	CacheSize         int     `json:"cacheSize"`
	RingSize          int     `json:"ringSize"` // span ring capacity in the traced phase
	Trials            int     `json:"trials"`   // interleaved baseline/traced pairs; best of each side is reported
}

// TracingArtifact is the versioned record of a tracing-on vs
// tracing-off serving comparison — the proof that the telemetry layer
// is near-free on the request path. Overhead is measured on
// throughput: (off - on) / off, in percent; negative means the traced
// run was faster (noise).
type TracingArtifact struct {
	Schema  int            `json:"schema"`
	Name    string         `json:"name"`
	Options TracingOptions `json:"options"`

	BaselineRequests         uint64  `json:"baselineRequests"`
	BaselineDurationMs       float64 `json:"baselineDurationMs"`
	BaselineThroughputPerSec float64 `json:"baselineThroughputPerSec"`
	BaselineLatencyMsP99     float64 `json:"baselineLatencyMsP99"`

	TracedRequests         uint64  `json:"tracedRequests"`
	TracedDurationMs       float64 `json:"tracedDurationMs"`
	TracedThroughputPerSec float64 `json:"tracedThroughputPerSec"`
	TracedLatencyMsP99     float64 `json:"tracedLatencyMsP99"`
	SpansRecorded          uint64  `json:"spansRecorded"` // total spans minted in the traced phase

	OverheadPercent float64 `json:"overheadPercent"`
}

// Validate checks schema version and structural coherence.
func (a *TracingArtifact) Validate() error {
	switch {
	case a.Schema != TracingSchemaVersion:
		return fmt.Errorf("experiments: tracing artifact schema %d, want %d", a.Schema, TracingSchemaVersion)
	case a.Name != TracingArtifactName:
		return fmt.Errorf("experiments: tracing artifact name %q, want %q", a.Name, TracingArtifactName)
	case a.BaselineRequests == 0:
		return errors.New("experiments: tracing artifact records no baseline requests")
	case a.TracedRequests == 0:
		return errors.New("experiments: tracing artifact records no traced requests")
	case a.BaselineThroughputPerSec <= 0 || a.TracedThroughputPerSec <= 0:
		return errors.New("experiments: tracing artifact has a non-positive throughput")
	case a.SpansRecorded == 0:
		return errors.New("experiments: tracing artifact recorded no spans in the traced phase — the comparison measured nothing")
	}
	return nil
}

// CheckOverhead enforces the gate: the traced run must not cost more
// than maxPercent of baseline throughput.
func (a *TracingArtifact) CheckOverhead(maxPercent float64) error {
	if a.OverheadPercent > maxPercent {
		return fmt.Errorf("experiments: tracing overhead %.2f%% exceeds the %.2f%% budget (baseline %.0f/s, traced %.0f/s)",
			a.OverheadPercent, maxPercent, a.BaselineThroughputPerSec, a.TracedThroughputPerSec)
	}
	return nil
}
