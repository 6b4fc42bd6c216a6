package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func validServingArtifact() *ServingArtifact {
	return &ServingArtifact{
		Schema: ServingSchemaVersion,
		Name:   ServingArtifactName,
		Options: ServingOptions{
			CheckpointWindows: 4, Parties: 8, SamplesPerParty: 40,
			TestPerParty: 20, Seed: 42, Concurrency: 4, Repeat: 2,
			Workers: 2, MaxBatch: 32, MaxDelayMs: 2, CacheSize: 4096,
		},
		Requests:         320,
		DurationMs:       12.5,
		ThroughputPerSec: 25600,
		LatencyMsP50:     0.1, LatencyMsP90: 0.2, LatencyMsP99: 0.5, LatencyMsMax: 1.2,
		Accuracy: 0.7, RoutedToAssigned: 0.8, CacheHitRate: 0.5, MeanBatch: 3.2,
		Regimes: []ServingRegime{
			{Regime: "none", Requests: 160, Accuracy: 0.8, RoutedToAssigned: 0.9, MatchedFraction: 0.4},
			{Regime: "fog/3", Requests: 160, Accuracy: 0.6, RoutedToAssigned: 0.7, MatchedFraction: 0.9},
		},
	}
}

func TestServingArtifactRoundTrip(t *testing.T) {
	a := validServingArtifact()
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := Decode[ServingArtifact](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != a.Requests || len(got.Regimes) != 2 || got.Regimes[1].Regime != "fog/3" {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestServingArtifactFile(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteFile(dir, ServingArtifactName, validServingArtifact())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_serving.json" {
		t.Fatalf("wrote %s, want BENCH_serving.json", path)
	}
	if _, err := ReadFile[ServingArtifact](path); err != nil {
		t.Fatal(err)
	}
}

func TestServingArtifactValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ServingArtifact)
		want   string
	}{
		{"wrong schema", func(a *ServingArtifact) { a.Schema = 99 }, "schema"},
		{"wrong name", func(a *ServingArtifact) { a.Name = "grid" }, "name"},
		{"cold name without flag", func(a *ServingArtifact) { a.Name = ServingColdArtifactName }, "coldTraffic"},
		{"cold flag without name", func(a *ServingArtifact) { a.Options.ColdTraffic = true }, "coldTraffic"},
		{"no requests", func(a *ServingArtifact) { a.Requests = 0 }, "requests"},
		{"no duration", func(a *ServingArtifact) { a.DurationMs = 0 }, "duration"},
		{"no regimes", func(a *ServingArtifact) { a.Regimes = nil }, "regime"},
		{"unnamed regime", func(a *ServingArtifact) { a.Regimes[0].Regime = "" }, "name"},
		{"empty regime", func(a *ServingArtifact) { a.Regimes[0].Requests = 0 }, "requests"},
	}
	for _, tc := range cases {
		a := validServingArtifact()
		tc.mutate(a)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestServingColdArtifactFile(t *testing.T) {
	a := validServingArtifact()
	a.Name = ServingColdArtifactName
	a.Options.ColdTraffic = true
	a.Options.CacheSize = -1
	a.CacheHitRate = 0
	dir := t.TempDir()
	path, err := WriteFile(dir, a.Name, a)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_serving-cold.json" {
		t.Fatalf("wrote %s, want BENCH_serving-cold.json", path)
	}
	got, err := ReadFile[ServingArtifact](path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Options.ColdTraffic || got.Name != ServingColdArtifactName {
		t.Fatalf("cold round trip lost the marker: %+v", got)
	}
}

func TestServingArtifactRejectsUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, validServingArtifact()); err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(buf.Bytes(), []byte(`"schema"`), []byte(`"bogusField": 1, "schema"`), 1)
	if _, err := Decode[ServingArtifact](bytes.NewReader(tampered)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
}
