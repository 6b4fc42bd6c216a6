package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// Bounds are the caller-chosen thresholds of the artifact gates; a zero
// field is not checked. Each bound applies to some artifact kinds only
// (gatedBounds), and CheckFile rejects a bound set for a kind it does not
// apply to rather than ignoring it. The fixed budgets (tracing and drift
// overhead, the closed-loop recovery) are not bounds: they live on their
// artifact types and always apply.
type Bounds struct {
	MinThroughput float64 // predictions/s floor
	MinMeanBatch  float64 // mean micro-batch floor
	MinAffinity   float64 // surviving-owner keys kept across the replica kill
	Against       string  // baseline artifact for the ±20% throughput warning
}

// gatedBounds maps every gated artifact name to the bounds it accepts.
var gatedBounds = map[string][]string{
	ServingArtifactName:     {"min-throughput", "min-mean-batch", "against"},
	ServingColdArtifactName: {"min-throughput", "min-mean-batch", "against"},
	GatewayArtifactName:     {"min-throughput", "min-affinity"},
	TracingArtifactName:     nil,
	DriftArtifactName:       nil,
	AdaptLiveArtifactName:   nil,
}

// set names the bounds b sets.
func (b Bounds) set() []string {
	var s []string
	if b.MinThroughput > 0 {
		s = append(s, "min-throughput")
	}
	if b.MinMeanBatch > 0 {
		s = append(s, "min-mean-batch")
	}
	if b.MinAffinity > 0 {
		s = append(s, "min-affinity")
	}
	if b.Against != "" {
		s = append(s, "against")
	}
	return s
}

// CheckFile reads the artifact at path, decodes it as the type its name
// selects, prints its headline numbers to w and applies that type's gate
// with b. An artifact kind without a gate (a grid artifact, say) is an
// error naming the gated kinds.
func CheckFile(w io.Writer, path string, b Bounds) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("experiments: read artifact: %w", err)
	}
	var head struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return fmt.Errorf("experiments: %s: %w", path, err)
	}
	accepts, ok := gatedBounds[head.Name]
	if !ok {
		names := make([]string, 0, len(gatedBounds))
		for n := range gatedBounds {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("experiments: %s is a %q artifact, which has no gate (gated kinds: %s)", path, head.Name, strings.Join(names, ", "))
	}
	for _, s := range b.set() {
		if !slices.Contains(accepts, s) {
			return fmt.Errorf("experiments: the %s bound does not apply to a %q artifact", s, head.Name)
		}
	}
	switch head.Name {
	case TracingArtifactName:
		return gate(w, path, (*TracingArtifact).CheckOverhead)
	case DriftArtifactName:
		return gate(w, path, (*DriftArtifact).CheckDrift)
	case AdaptLiveArtifactName:
		return gate(w, path, (*AdaptLiveArtifact).CheckAdaptLive)
	case GatewayArtifactName:
		return gate(w, path, func(a *GatewayArtifact) error {
			return a.CheckGateway(b.MinThroughput, b.MinAffinity)
		})
	default: // serving, serving-cold
		return gate(w, path, func(a *ServingArtifact) error {
			if err := a.CheckServing(b.MinThroughput, b.MinMeanBatch); err != nil || b.Against == "" {
				return err
			}
			base, err := ReadFile[ServingArtifact](b.Against)
			if err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			return a.CompareThroughput(w, base, b.Against)
		})
	}
}

// gate decodes one artifact of type T, prints its summary and applies
// check.
func gate[T any, P interface {
	validated[T]
	Summary(io.Writer)
}](w io.Writer, path string, check func(P) error) error {
	a, err := ReadFile[T, P](path)
	if err != nil {
		return err
	}
	a.Summary(w)
	return check(a)
}
