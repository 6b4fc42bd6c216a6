package experiments

import (
	"errors"
	"fmt"
	"math"
)

// DriftSchemaVersion is bumped whenever the BENCH_drift.json layout
// changes incompatibly; decoders reject other versions.
const DriftSchemaVersion = 1

// DriftArtifactName keys the drift-detection benchmark's artifact file
// (BENCH_drift.json via ArtifactFileName).
const DriftArtifactName = "drift"

// DriftOptions records the protocol of one drift-detection run: a cold
// (cache-disabled) serving workload with a deterministic input
// corruption injected at ShiftAt of the run, replayed as Trials
// interleaved unmonitored/monitored pairs. The unmonitored side is the
// throughput baseline; the monitored side feeds the drift monitor and
// must both detect the injected shift and stay within the overhead
// budget. Best trial of each side is reported, which cancels
// interference from other tenants of the host.
type DriftOptions struct {
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

	ShiftAt       float64 `json:"shiftAt"`       // fraction of the stream after which inputs shift
	ShiftKind     string  `json:"shiftKind"`     // corruption name (dataset.Corruption.String)
	ShiftSeverity int     `json:"shiftSeverity"` // corruption severity 1..5

	EvalEvery    int     `json:"evalEvery"`    // monitor: folded samples between drift evaluations
	SampleEvery  int     `json:"sampleEvery"`  // monitor: fold every Nth teed block (CPU governor)
	BaselineSize int     `json:"baselineSize"` // monitor: frozen pre-shift reservoir size
	WindowSize   int     `json:"windowSize"`   // monitor: recent-embedding window size
	Threshold    float64 `json:"threshold"`    // monitor: crossing threshold on the calibrated score
	Resamples    int     `json:"resamples"`    // monitor: bootstrap resamples calibrating δ
	Trials       int     `json:"trials"`       // interleaved unmonitored/monitored pairs
}

// DriftArtifact is the versioned record of one live drift-detection
// benchmark — the proof that the monitor plane both sees the injected
// regime change (finite detection latency, no pre-shift crossings) and
// is near-free on the request path. Overhead is measured on
// throughput: (baseline - monitored) / baseline, in percent; negative
// means the monitored run was faster (noise).
type DriftArtifact struct {
	Schema  int          `json:"schema"`
	Name    string       `json:"name"`
	Options DriftOptions `json:"options"`

	BaselineRequests         uint64  `json:"baselineRequests"`
	BaselineDurationMs       float64 `json:"baselineDurationMs"`
	BaselineThroughputPerSec float64 `json:"baselineThroughputPerSec"`

	MonitoredRequests         uint64  `json:"monitoredRequests"`
	MonitoredDurationMs       float64 `json:"monitoredDurationMs"`
	MonitoredThroughputPerSec float64 `json:"monitoredThroughputPerSec"`

	OverheadPercent float64 `json:"overheadPercent"`

	// Detection record, from the best monitored trial. Samples are
	// counted in teed requests (the monitor's clock): the shift
	// watermark is the monitor's teed count at the injection instant,
	// and detection latency is the teed-sample gap between that
	// watermark and the first evaluation whose score crossed the
	// threshold.
	SamplesSeen             uint64  `json:"samplesSeen"`    // samples folded into sketches
	SamplesDropped          uint64  `json:"samplesDropped"` // backpressure drops (hot path never blocked)
	Evals                   uint64  `json:"evals"`          // drift evaluations run
	ShiftAtSample           uint64  `json:"shiftAtSample"`  // teed watermark at injection
	DetectedAtSample        uint64  `json:"detectedAtSample,omitempty"`
	DetectionLatencySamples uint64  `json:"detectionLatencySamples,omitempty"`
	Detected                bool    `json:"detected"`
	FalsePositives          int     `json:"falsePositives"` // threshold crossings at or before the watermark
	Delta                   float64 `json:"delta"`          // calibrated null-quantile the score is normalized by
	ScoreAtDetection        float64 `json:"scoreAtDetection,omitempty"`
	MaxScore                float64 `json:"maxScore"` // highest score over all evaluations
}

// Validate checks schema version and structural coherence.
func (a *DriftArtifact) Validate() error {
	switch {
	case a.Schema != DriftSchemaVersion:
		return fmt.Errorf("experiments: drift artifact schema %d, want %d", a.Schema, DriftSchemaVersion)
	case a.Name != DriftArtifactName:
		return fmt.Errorf("experiments: drift artifact name %q, want %q", a.Name, DriftArtifactName)
	case a.Options.ShiftAt <= 0 || a.Options.ShiftAt >= 1:
		return fmt.Errorf("experiments: drift artifact shiftAt %g outside (0,1)", a.Options.ShiftAt)
	case a.BaselineRequests == 0:
		return errors.New("experiments: drift artifact records no baseline requests")
	case a.MonitoredRequests == 0:
		return errors.New("experiments: drift artifact records no monitored requests")
	case a.BaselineThroughputPerSec <= 0 || a.MonitoredThroughputPerSec <= 0:
		return errors.New("experiments: drift artifact has a non-positive throughput")
	case a.SamplesSeen == 0:
		return errors.New("experiments: drift artifact folded no samples — the monitor saw nothing")
	case a.Evals == 0:
		return errors.New("experiments: drift artifact ran no drift evaluations")
	case a.Delta <= 0 || math.IsNaN(a.Delta) || math.IsInf(a.Delta, 0):
		return fmt.Errorf("experiments: drift artifact has degenerate calibration delta %g", a.Delta)
	case a.Detected && a.DetectedAtSample <= a.ShiftAtSample:
		return fmt.Errorf("experiments: drift artifact claims detection at sample %d, at or before the shift watermark %d",
			a.DetectedAtSample, a.ShiftAtSample)
	case a.Detected && a.DetectionLatencySamples != a.DetectedAtSample-a.ShiftAtSample:
		return fmt.Errorf("experiments: drift artifact latency %d inconsistent with detection %d - watermark %d",
			a.DetectionLatencySamples, a.DetectedAtSample, a.ShiftAtSample)
	}
	return nil
}

// CheckDrift enforces the CI gate: the injected shift must have been
// detected, with zero pre-shift threshold crossings, at a monitoring
// overhead of no more than maxOverheadPercent of baseline throughput.
func (a *DriftArtifact) CheckDrift(maxOverheadPercent float64) error {
	switch {
	case !a.Detected:
		return fmt.Errorf("experiments: drift monitor never crossed the threshold after the injected shift (max score %.3f vs threshold %.3f over %d evals)",
			a.MaxScore, a.Options.Threshold, a.Evals)
	case a.FalsePositives != 0:
		return fmt.Errorf("experiments: drift monitor crossed the threshold %d time(s) before the injected shift", a.FalsePositives)
	case a.OverheadPercent > maxOverheadPercent:
		return fmt.Errorf("experiments: drift monitoring overhead %.2f%% exceeds the %.2f%% budget (baseline %.0f/s, monitored %.0f/s)",
			a.OverheadPercent, maxOverheadPercent, a.BaselineThroughputPerSec, a.MonitoredThroughputPerSec)
	}
	return nil
}
