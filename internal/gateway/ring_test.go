package gateway

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestRingDistribution(t *testing.T) {
	r := NewRing(0)
	members := []string{"a:1", "b:2", "c:3", "d:4"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	rng := tensor.NewRNG(7)
	const keys = 8000
	for i := 0; i < keys; i++ {
		x := rng.NormVec(16, 0, 1)
		counts[r.Owner(KeyHash(x))]++
	}
	for _, m := range members {
		frac := float64(counts[m]) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys; vnode sharding is badly skewed (%v)", m, frac*100, counts)
		}
	}
}

// TestRingShrinkRetention pins the consistent-hashing guarantee the
// gateway benchmark gates on: removing one member moves ONLY that
// member's keys — every key whose owner survives stays put.
func TestRingShrinkRetention(t *testing.T) {
	r := NewRing(0)
	members := []string{"a:1", "b:2", "c:3", "d:4"}
	for _, m := range members {
		r.Add(m)
	}
	rng := tensor.NewRNG(21)
	const keys = 4000
	for i := 0; i < keys; i++ {
		r.Owner(KeyHash(rng.NormVec(16, 0, 1)))
	}
	st := r.Remove("b:2")
	if st.Removed != "b:2" || st.KeysTracked == 0 {
		t.Fatalf("shrink stats not recorded: %+v", st)
	}
	if st.RetainedOfSurvivors != 1.0 {
		t.Errorf("retainedOfSurvivors = %v, want exactly 1.0: consistent hashing must not move surviving members' keys", st.RetainedOfSurvivors)
	}
	// Removing 1 of 4 members should move roughly a quarter of the keys.
	if st.MovedFraction < 0.10 || st.MovedFraction > 0.45 {
		t.Errorf("movedFraction = %v, want ≈0.25 (only the removed member's keys move)", st.MovedFraction)
	}
	// A second shrink keeps measuring correctly against the reassigned map.
	st2 := r.Remove("c:3")
	if st2.RetainedOfSurvivors != 1.0 {
		t.Errorf("second shrink retainedOfSurvivors = %v, want 1.0", st2.RetainedOfSurvivors)
	}
	if got := r.Members(); len(got) != 2 {
		t.Fatalf("members after two shrinks: %v", got)
	}
}

func TestRingSuccessorsDistinctAndStable(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("m%d:9", i))
	}
	key := KeyHash(tensor.Vector{1, 2, 3})
	succ := r.Successors(key, 5)
	if len(succ) != 5 {
		t.Fatalf("want 5 distinct successors, got %v", succ)
	}
	seen := map[string]bool{}
	for _, s := range succ {
		if seen[s] {
			t.Fatalf("duplicate successor %s in %v", s, succ)
		}
		seen[s] = true
	}
	if owner := r.Owner(key); owner != succ[0] {
		t.Errorf("owner %s is not the first successor %v", owner, succ)
	}
	// Asking for more than the membership truncates.
	if got := r.Successors(key, 50); len(got) != 5 {
		t.Errorf("successors beyond membership: %v", got)
	}
	// Same key, same order on repeat calls.
	again := r.Successors(key, 5)
	for i := range succ {
		if succ[i] != again[i] {
			t.Fatalf("successor order unstable: %v vs %v", succ, again)
		}
	}
}

func TestRingEmptyAndUnknown(t *testing.T) {
	r := NewRing(0)
	if o := r.Owner(42); o != "" {
		t.Errorf("empty ring owner = %q", o)
	}
	if s := r.Successors(42, 3); s != nil {
		t.Errorf("empty ring successors = %v", s)
	}
	st := r.Remove("ghost:1")
	if st.KeysTracked != 0 || st.MovedFraction != 0 {
		t.Errorf("removing unknown member produced stats: %+v", st)
	}
}

// TestKeyHashPinned pins ring keys to FNV-1a 64 over little-endian float64
// bits (the values hash/fnv gives), so replica placement cannot drift.
func TestKeyHashPinned(t *testing.T) {
	for _, tc := range []struct {
		x    tensor.Vector
		want uint64
	}{
		{nil, 0xcbf29ce484222325}, // the FNV-1a offset basis
		{tensor.Vector{0}, 0xa8c7f832281a39c5},
		{tensor.Vector{1, 2, 3}, 0xe2d5ae79fc4e9a70},
		{tensor.Vector{-0.5, math.Inf(1), 1e-300}, 0xaf6868abf7907ea4},
	} {
		if got := KeyHash(tc.x); got != tc.want {
			t.Errorf("KeyHash(%v) = %#x, want %#x", tc.x, got, tc.want)
		}
	}
}
