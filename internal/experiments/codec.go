package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The artifact codec: every BENCH_*.json type (Artifact, ServingArtifact,
// GatewayArtifact, TracingArtifact, DriftArtifact, AdaptLiveArtifact) is
// written and read through these four functions, and each type supplies
// only its fields and its Validate.

// validated is the constraint the decoder needs: a pointer to the
// artifact type that can check its own schema and coherence.
type validated[T any] interface {
	*T
	Validate() error
}

// ArtifactFileName is the canonical on-disk name, BENCH_<name>.json.
func ArtifactFileName(name string) string {
	return "BENCH_" + name + ".json"
}

// Encode writes an artifact as indented, newline-terminated JSON. Field
// order is fixed by the struct layout and Go's json encoder sorts map
// keys, so equal artifacts always encode to equal bytes.
func Encode(w io.Writer, a any) error {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: encode %T: %w", a, err)
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// Decode reads and validates one artifact of type T. Unknown fields are
// rejected so schema drift fails loudly instead of silently dropping data.
func Decode[T any, P validated[T]](r io.Reader) (P, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	a := P(new(T))
	if err := dec.Decode(a); err != nil {
		return nil, fmt.Errorf("experiments: decode %T: %w", a, err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// WriteFile encodes an artifact into dir as ArtifactFileName(name) and
// returns the written path.
func WriteFile(dir, name string, a any) (string, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ArtifactFileName(name))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("experiments: write artifact: %w", err)
	}
	return path, nil
}

// ReadFile decodes and validates one artifact of type T from disk.
func ReadFile[T any, P validated[T]](path string) (P, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: read artifact: %w", err)
	}
	defer f.Close()
	return Decode[T, P](f)
}
