package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// roundTrip decodes a committed artifact through the codec as T and
// checks it re-encodes to the very same bytes: the codec neither drops
// nor reorders a field of any artifact the repo records.
func roundTrip[T any, P validated[T]](t *testing.T, name string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", ArtifactFileName(name)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode[T, P](bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("%s does not re-encode to its committed bytes", ArtifactFileName(name))
	}
}

func TestCommittedArtifactsRoundTrip(t *testing.T) {
	for _, name := range []string{"fmow", "cifar10c", "tinyimagenetc", "femnist", "fashionmnist", "fmow-policies", HeadlineName} {
		roundTrip[Artifact](t, name)
	}
	roundTrip[ServingArtifact](t, ServingArtifactName)
	roundTrip[ServingArtifact](t, ServingColdArtifactName)
	roundTrip[GatewayArtifact](t, GatewayArtifactName)
	roundTrip[TracingArtifact](t, TracingArtifactName)
	roundTrip[DriftArtifact](t, DriftArtifactName)
	roundTrip[AdaptLiveArtifact](t, AdaptLiveArtifactName)
}
