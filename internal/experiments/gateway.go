package experiments

import (
	"errors"
	"fmt"
	"io"
)

// GatewaySchemaVersion is bumped whenever the BENCH_gateway.json layout
// changes incompatibly; decoders reject other versions.
const GatewaySchemaVersion = 1

// GatewayArtifactName keys the gateway benchmark's artifact file
// (BENCH_gateway.json via ArtifactFileName).
const GatewayArtifactName = "gateway"

// GatewayOptions records the gateway load protocol: the replica topology,
// the middleware chain the requests traversed, and the mid-load kill.
type GatewayOptions struct {
	CheckpointWindows int      `json:"checkpointWindows"`
	Parties           int      `json:"parties"`
	SamplesPerParty   int      `json:"samplesPerParty"`
	TestPerParty      int      `json:"testPerParty"`
	Seed              uint64   `json:"seed"`
	Models            []string `json:"models"`   // model names driven
	Replicas          int      `json:"replicas"` // replicas at start of run, all models
	TargetQPS         float64  `json:"targetQps"`
	Concurrency       int      `json:"concurrency"`
	Repeat            int      `json:"repeat"`
	ClientRetries     int      `json:"clientRetries"`
	PredictChain      []string `json:"predictChain"` // middleware names on the predict route
	KillReplica       bool     `json:"killReplica"`  // a replica was SIGKILLed mid-load
	KillAtFraction    float64  `json:"killAtFraction,omitempty"`
}

// GatewayModelResult is one model's standing after the run, as reported
// by the gateway's /v1/state.
type GatewayModelResult struct {
	Model           string  `json:"model"`
	Requests        uint64  `json:"requests"` // client-side requests addressed to it
	Accuracy        float64 `json:"accuracy"`
	HealthyReplicas int     `json:"healthyReplicas"`
	Replicas        int     `json:"replicas"`
	// Consistent-hash retention across the run's fleet shrink, from the
	// gateway's own key tracker: of the keys whose ring owner SURVIVED the
	// shrink, the fraction still routed to that owner. Zero when the model
	// saw no shrink.
	AffinityRetained float64 `json:"affinityRetained,omitempty"`
	MovedFraction    float64 `json:"movedFraction,omitempty"`
	KeysTracked      int     `json:"keysTracked,omitempty"`
}

// GatewayArtifact is the versioned, machine-readable record of one
// multi-process gateway load run: throughput and latency through the full
// middleware chain, failover behaviour across a mid-load replica kill,
// and the consistent-hash affinity that survived the shrink.
type GatewayArtifact struct {
	Schema  int            `json:"schema"`
	Name    string         `json:"name"`
	Options GatewayOptions `json:"options"`

	Requests         uint64  `json:"requests"` // completed predictions
	Errors           uint64  `json:"errors"`   // requests failed after client retries
	Rejected         uint64  `json:"rejected"` // middleware rejections observed (429/503)
	Retried          uint64  `json:"retried"`  // client-side retry attempts
	DurationMs       float64 `json:"durationMs"`
	ThroughputPerSec float64 `json:"throughputPerSec"`

	LatencyMsP50 float64 `json:"latencyMsP50"`
	LatencyMsP90 float64 `json:"latencyMsP90"`
	LatencyMsP99 float64 `json:"latencyMsP99"`
	LatencyMsMax float64 `json:"latencyMsMax"`

	Accuracy       float64 `json:"accuracy"`
	SessionHitRate float64 `json:"sessionHitRate"` // gateway session-cache hit rate
	Failovers      uint64  `json:"failovers"`      // answered by a ring successor
	Evictions      uint64  `json:"evictions"`
	Readmissions   uint64  `json:"readmissions"`

	Models []GatewayModelResult `json:"models"`
}

// Validate checks schema version and structural coherence. A kill run
// must carry the evidence it claims: at least one model with tracked
// affinity, and at least one eviction or failover (a kill nobody noticed
// proves nothing).
func (a *GatewayArtifact) Validate() error {
	switch {
	case a.Schema != GatewaySchemaVersion:
		return fmt.Errorf("experiments: gateway artifact schema %d, want %d", a.Schema, GatewaySchemaVersion)
	case a.Name != GatewayArtifactName:
		return fmt.Errorf("experiments: gateway artifact name %q, want %q", a.Name, GatewayArtifactName)
	case a.Requests == 0:
		return errors.New("experiments: gateway artifact records no completed requests")
	case a.DurationMs <= 0:
		return errors.New("experiments: gateway artifact has no duration")
	case len(a.Models) == 0:
		return errors.New("experiments: gateway artifact has no per-model breakdown")
	}
	for i, m := range a.Models {
		if m.Model == "" {
			return fmt.Errorf("experiments: gateway model %d has no name", i)
		}
	}
	if a.Options.KillReplica {
		if a.Evictions == 0 && a.Failovers == 0 {
			return errors.New("experiments: kill run recorded neither evictions nor failovers")
		}
		tracked := false
		for _, m := range a.Models {
			if m.KeysTracked > 0 {
				tracked = true
			}
		}
		if !tracked {
			return errors.New("experiments: kill run has no affinity tracking to assert on")
		}
	}
	return nil
}

// MinAffinityRetained returns the smallest per-model affinity retention
// among models that recorded a shrink, or 1 when none did — the number
// the ≥0.9 consistent-hashing acceptance gate checks.
func (a *GatewayArtifact) MinAffinityRetained() float64 {
	min := 1.0
	for _, m := range a.Models {
		if m.KeysTracked > 0 && m.AffinityRetained < min {
			min = m.AffinityRetained
		}
	}
	return min
}

// Summary prints the artifact's headline numbers on one line.
func (a *GatewayArtifact) Summary(w io.Writer) {
	fmt.Fprintf(w, "gateway artifact ok: requests=%d errors=%d retried=%d throughputPerSec=%.0f p99Ms=%.3g accuracy=%.3f failovers=%d evictions=%d minAffinity=%.3f models=%d\n",
		a.Requests, a.Errors, a.Retried, a.ThroughputPerSec, a.LatencyMsP99,
		a.Accuracy, a.Failovers, a.Evictions, a.MinAffinityRetained(), len(a.Models))
}

// CheckGateway enforces the gateway gate: no request failed after client
// retries, and, when the bounds are positive, at least minThroughput
// predictions/s and, across the run's replica kill, at least minAffinity
// of the surviving-owner keys kept their owner. An affinity bound on a run
// without a kill is an error: there was no shrink to measure.
func (a *GatewayArtifact) CheckGateway(minThroughput, minAffinity float64) error {
	switch {
	case a.Errors > 0:
		return fmt.Errorf("experiments: gateway artifact records %d requests failed after retries", a.Errors)
	case minThroughput > 0 && a.ThroughputPerSec < minThroughput:
		return fmt.Errorf("experiments: gateway throughput %.0f/s below required %.0f/s", a.ThroughputPerSec, minThroughput)
	case minAffinity > 0 && !a.Options.KillReplica:
		return errors.New("experiments: affinity bound set but the gateway artifact records no replica kill")
	case minAffinity > 0 && a.MinAffinityRetained() < minAffinity:
		return fmt.Errorf("experiments: affinity retention %.3f below required %.3f", a.MinAffinityRetained(), minAffinity)
	}
	return nil
}
