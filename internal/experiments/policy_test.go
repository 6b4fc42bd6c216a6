package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestPolicyTechniques(t *testing.T) {
	tfs, err := PolicyTechniques(tinyOptions(), []string{"default", "exact-assign"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tf := range tfs {
		names = append(names, tf.Name)
	}
	want := []string{"shiftex@default", "shiftex@exact-assign"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("sweep factories %v, want %v", names, want)
	}
	for _, tf := range tfs {
		if tf.Policy == "" {
			t.Fatalf("factory %s has no policy recorded", tf.Name)
		}
	}

	// Unknown policies fail up front with the live registry listing.
	_, err = PolicyTechniques(tinyOptions(), []string{"nope"})
	if err == nil {
		t.Fatal("unknown policy should error")
	}
	if !strings.Contains(err.Error(), "exact-assign") {
		t.Fatalf("error %q does not carry the registry listing", err)
	}
	if _, err := PolicyTechniques(tinyOptions(), nil); err == nil {
		t.Fatal("empty sweep should error")
	}
	// A trailing comma must not silently add a default-policy cell, and
	// duplicates must not produce colliding grid keys.
	if _, err := PolicyTechniques(tinyOptions(), []string{"exact-assign", ""}); err == nil {
		t.Fatal("empty policy name should error")
	}
	if _, err := PolicyTechniques(tinyOptions(), []string{"default", "default"}); err == nil {
		t.Fatal("duplicate policy name should error")
	}
}

func TestTechniqueByNameWithPolicy(t *testing.T) {
	tf, err := TechniqueByName(tinyOptions(), "shiftex@cov-detect")
	if err != nil {
		t.Fatal(err)
	}
	if tf.Name != "shiftex@cov-detect" || tf.Policy != "cov-detect" {
		t.Fatalf("parsed factory %+v", tf)
	}
	if _, err := TechniqueByName(tinyOptions(), "shiftex@nope"); err == nil {
		t.Fatal("unknown policy should error")
	}
	if _, err := TechniqueByName(tinyOptions(), "fedprox@exact-assign"); err == nil {
		t.Fatal("policy on a policy-free technique should error")
	}
	if _, err := TechniqueByName(tinyOptions(), "nope"); err == nil {
		t.Fatal("unknown technique should error")
	}
	if _, err := TechniqueByName(tinyOptions(), "shiftex@"); err == nil {
		t.Fatal("trailing @ should error, not silently match nothing")
	}
	// The default policy is a no-op on a policy-free technique — same
	// tolerance as adapt.NewTechnique, normalized to the plain factory so
	// the display name matches real cell keys.
	tf, err = TechniqueByName(tinyOptions(), "fedprox@default")
	if err != nil {
		t.Fatal(err)
	}
	if tf.Name != "fedprox" || tf.Policy != "" {
		t.Fatalf("fedprox@default normalized to %+v, want plain fedprox", tf)
	}
}

// TestPolicySweepGridCellParity is the grid-cell half of the exact-solver
// parity check: on a small scenario the same cell runs under the default
// and exact-assign policies, both complete and analyze, and the
// registry-constructed "shiftex@default" cell is bit-identical to the
// plain "shiftex" cell (the default policy IS the default technique).
func TestPolicySweepGridCellParity(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep training is slow")
	}
	opts := tinyOptions()
	b := FMoW()

	plain, err := Run(b, StandardTechniques(opts)[0], opts, 1)
	if err != nil {
		t.Fatal(err)
	}

	tfs, err := PolicyTechniques(opts, []string{"default", "exact-assign"})
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Benchmarks: []Benchmark{b}, Techniques: tfs, Options: opts}
	cells, err := RunGrid(context.Background(), g, Pool{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}

	byName := map[string]CellResult{}
	for _, cr := range cells {
		if cr.Err != nil {
			t.Fatalf("%s: %v", cr.Cell.Key(), cr.Err)
		}
		if len(cr.Result.Traces) == 0 {
			t.Fatalf("%s produced no traces", cr.Cell.Key())
		}
		byName[cr.Cell.Technique.Name] = cr
	}

	def := byName["shiftex@default"].Result
	if !reflect.DeepEqual(def.Traces, plain.Traces) || !reflect.DeepEqual(def.Distributions, plain.Distributions) {
		t.Fatal("shiftex@default diverges from plain shiftex on the same cell")
	}

	exact := byName["shiftex@exact-assign"].Result
	if len(exact.Traces) != len(def.Traces) {
		t.Fatalf("exact-assign ran %d windows, default %d", len(exact.Traces), len(def.Traces))
	}
}

// TestPolicyArtifactRoundTrip: swept cells carry their policy through the
// artifact layer, artifact names are free-form grid labels, and replay
// resolves the benchmark from the cells.
func TestPolicyArtifactRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep training is slow")
	}
	opts := tinyOptions()
	b := FMoW()
	tfs, err := PolicyTechniques(opts, []string{"default", "cov-detect"})
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Benchmarks: []Benchmark{b}, Techniques: tfs, Options: opts}
	cells, err := RunGrid(context.Background(), g, Pool{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	arts := ArtifactsFromCells(opts, cells)
	if len(arts) != 1 {
		t.Fatalf("got %d artifacts, want 1", len(arts))
	}
	a := arts[0]
	a.Name += "-policies" // the -policy sweep suffix shiftex-bench applies
	a.StripTiming()
	for _, c := range a.Cells {
		if c.Policy == "" {
			t.Fatalf("cell %s/%s has no policy recorded", c.Benchmark, c.Technique)
		}
		if !strings.HasSuffix(c.Technique, "@"+c.Policy) {
			t.Fatalf("cell technique %q does not carry policy %q", c.Technique, c.Policy)
		}
	}

	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := Decode[Artifact](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("artifact did not round-trip")
	}

	cmp, err := ComparisonFromArtifact(back)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Benchmark.Name != b.Name {
		t.Fatalf("replay resolved benchmark %q, want %q", cmp.Benchmark.Name, b.Name)
	}
	if len(cmp.Order) != 2 {
		t.Fatalf("replay found %d techniques, want 2 (%v)", len(cmp.Order), cmp.Order)
	}
}
