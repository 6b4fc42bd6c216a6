package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committed is the path of a committed BENCH_<name>.json at the repo root.
func committed(name string) string {
	return filepath.Join("..", "..", ArtifactFileName(name))
}

// doctored writes a copy of the committed artifact name with edit applied
// to its JSON object and returns the copy's path.
func doctored(t *testing.T, name string, edit func(map[string]any)) string {
	t.Helper()
	raw, err := os.ReadFile(committed(name))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), ArtifactFileName(name))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// set returns an edit assigning v to the dotted field path (e.g.
// "options.killReplica"); "models[].affinityRetained" edits every element.
func set(field string, v any) func(map[string]any) {
	return func(m map[string]any) {
		parts := strings.Split(field, ".")
		last := parts[len(parts)-1]
		obj := m
		for _, p := range parts[:len(parts)-1] {
			if list, ok := strings.CutSuffix(p, "[]"); ok {
				for _, el := range obj[list].([]any) {
					el.(map[string]any)[last] = v
				}
				return
			}
			obj = obj[p].(map[string]any)
		}
		obj[last] = v
	}
}

// TestCheckFileGates pins the check dispatch: each committed gated
// artifact passes its documented bounds, and a copy doctored to break
// exactly one gate condition fails on that condition. The fixed budgets
// have no bound that could switch them off.
func TestCheckFileGates(t *testing.T) {
	servingBounds := Bounds{MinThroughput: 10000}
	coldBounds := Bounds{MinThroughput: 10000, MinMeanBatch: 2, Against: committed(ServingColdArtifactName)}
	gatewayBounds := Bounds{MinAffinity: 0.9}

	for _, c := range []struct {
		artifact string
		bounds   Bounds
	}{
		{ServingArtifactName, servingBounds},
		{ServingColdArtifactName, coldBounds},
		{GatewayArtifactName, gatewayBounds},
		{TracingArtifactName, Bounds{}},
		{DriftArtifactName, Bounds{}},
		{AdaptLiveArtifactName, Bounds{}},
	} {
		if err := CheckFile(io.Discard, committed(c.artifact), c.bounds); err != nil {
			t.Errorf("committed %s fails its gate: %v", c.artifact, err)
		}
	}

	for _, c := range []struct {
		name     string
		artifact string
		edit     func(map[string]any)
		bounds   Bounds
		want     string
	}{
		{"serving errored request", ServingArtifactName, set("errors", 1), servingBounds, "errored requests"},
		{"serving-cold below min-throughput", ServingColdArtifactName, set("throughputPerSec", 9999), coldBounds, "throughput"},
		{"serving-cold below min-mean-batch", ServingColdArtifactName, set("meanBatch", 1.5), coldBounds, "mean batch"},
		{"gateway failed request", GatewayArtifactName, set("errors", 1), gatewayBounds, "failed after retries"},
		{"gateway affinity below bound", GatewayArtifactName, set("models[].affinityRetained", 0.5), gatewayBounds, "affinity retention"},
		{"gateway min-affinity without a kill", GatewayArtifactName, set("options.killReplica", false), gatewayBounds, "no replica kill"},
		{"tracing over budget", TracingArtifactName, set("overheadPercent", TracingOverheadBudget+0.01), Bounds{}, "budget"},
		{"drift over budget", DriftArtifactName, set("overheadPercent", DriftOverheadBudget+0.01), Bounds{}, "budget"},
		{"drift undetected", DriftArtifactName, set("detected", false), Bounds{}, "never crossed"},
		{"drift false positive", DriftArtifactName, set("falsePositives", 1), Bounds{}, "before the injected shift"},
		{"adapt-live no recovery", AdaptLiveArtifactName, func(m map[string]any) {
			m["postSwapShiftedRouted"] = m["frozenShiftedRouted"]
		}, Bounds{}, "does not improve"},
		{"bound foreign to the kind", TracingArtifactName, func(map[string]any) {}, Bounds{MinAffinity: 0.9}, "does not apply"},
		{"serving bound on a gateway artifact", GatewayArtifactName, func(map[string]any) {}, Bounds{MinMeanBatch: 2}, "does not apply"},
	} {
		err := CheckFile(io.Discard, doctored(t, c.artifact, c.edit), c.bounds)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestCheckFileRejectsUngatedKinds(t *testing.T) {
	err := CheckFile(io.Discard, committed("fmow"), Bounds{})
	if err == nil {
		t.Fatal("a grid artifact passed the check")
	}
	for name := range gatedBounds {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list gated kind %q", err, name)
		}
	}
}
