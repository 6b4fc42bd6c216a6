package gateway

import (
	"fmt"
	"testing"

	"repro/internal/httpapi"
)

func TestSessionCacheHitAndVersionInvalidation(t *testing.T) {
	c := newSessionCache(8)
	resp := httpapi.PredictResponse{Class: 3, Expert: 1, Snapshot: 1, Model: "m"}
	c.put("m", 42, 1, resp)

	got, ok := c.get("m", 42, 1)
	if !ok || got.Class != 3 {
		t.Fatalf("expected hit, got ok=%v %+v", ok, got)
	}
	// A different model namespace misses.
	if _, ok := c.get("other", 42, 1); ok {
		t.Fatal("cross-model hit: session keys must be (model, key)")
	}
	// The fleet moved to snapshot 2: the entry is stale and must die.
	if _, ok := c.get("m", 42, 2); ok {
		t.Fatal("stale snapshot entry served after version advance")
	}
	if c.lru.Len() != 0 {
		t.Fatalf("stale entry not evicted on sight: len=%d", c.lru.Len())
	}
	// Re-cached under the new version, it serves again.
	c.put("m", 42, 2, resp)
	if _, ok := c.get("m", 42, 2); !ok {
		t.Fatal("fresh entry missing after re-put")
	}
}

func TestSessionCacheLRUEviction(t *testing.T) {
	c := newSessionCache(4)
	for i := 0; i < 4; i++ {
		c.put("m", uint64(i), 1, httpapi.PredictResponse{Class: i})
	}
	// Touch key 0 so it is most recently used, then overflow.
	if _, ok := c.get("m", 0, 1); !ok {
		t.Fatal("warm entry missing")
	}
	c.put("m", 99, 1, httpapi.PredictResponse{Class: 99})
	if _, ok := c.get("m", 0, 1); !ok {
		t.Error("most-recently-used entry was evicted")
	}
	if _, ok := c.get("m", 1, 1); ok {
		t.Error("least-recently-used entry survived overflow")
	}
	if c.lru.Len() != 4 {
		t.Errorf("len=%d, want 4", c.lru.Len())
	}
}

func TestSessionCacheDisabled(t *testing.T) {
	c := newSessionCache(-1)
	c.put("m", 1, 1, httpapi.PredictResponse{})
	if _, ok := c.get("m", 1, 1); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

func TestSessionCacheManyModels(t *testing.T) {
	c := newSessionCache(64)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("model-%d", i)
		c.put(name, 7, i+1, httpapi.PredictResponse{Class: i, Model: name})
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("model-%d", i)
		got, ok := c.get(name, 7, i+1)
		if !ok || got.Model != name || got.Class != i {
			t.Fatalf("model %s entry wrong: ok=%v %+v", name, ok, got)
		}
	}
}
