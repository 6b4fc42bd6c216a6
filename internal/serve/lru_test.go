package serve

import (
	"testing"

	"repro/internal/tensor"
)

func TestRouteCacheBasics(t *testing.T) {
	c := newRouteCache(2)
	a := tensor.Vector{1, 2}
	b := tensor.Vector{3, 4}
	d := tensor.Vector{5, 6}

	if _, _, ok := c.get(a, 1); ok {
		t.Fatal("empty cache must miss")
	}
	c.put(a, 1, 7, true)
	if e, m, ok := c.get(a, 1); !ok || e != 7 || !m {
		t.Fatalf("got (%d,%v,%v), want (7,true,true)", e, m, ok)
	}
	// Version mismatch is a miss (stale snapshot).
	if _, _, ok := c.get(a, 2); ok {
		t.Fatal("stale version must miss")
	}
	// Overwrite with the new version, then the old one misses.
	c.put(a, 2, 3, false)
	if e, _, ok := c.get(a, 2); !ok || e != 3 {
		t.Fatalf("overwrite lost: (%d,%v)", e, ok)
	}
	if _, _, ok := c.get(a, 1); ok {
		t.Fatal("old version must miss after overwrite")
	}

	// LRU eviction: touch a, insert b then d — b (least recent) evicts.
	c.put(b, 2, 1, false)
	c.get(a, 2)
	c.put(d, 2, 9, true)
	if _, _, ok := c.get(b, 2); ok {
		t.Fatal("LRU entry must be evicted")
	}
	if _, _, ok := c.get(a, 2); !ok {
		t.Fatal("recently used entry must survive")
	}
	if c.lru.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.lru.Len())
	}
}

func TestRouteCacheDisabled(t *testing.T) {
	c := newRouteCache(-1)
	x := tensor.Vector{1}
	c.put(x, 1, 2, true)
	if _, _, ok := c.get(x, 1); ok {
		t.Fatal("disabled cache must always miss")
	}
	if c.lru.Len() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}

// TestRouteCacheCollisionGuard pins that a hash collision cannot return the
// wrong decision: the stored input is compared bitwise on lookup.
func TestRouteCacheCollisionGuard(t *testing.T) {
	c := newRouteCache(4)
	a := tensor.Vector{1, 2}
	c.put(a, 1, 7, true)
	// Forge a colliding entry: a different input stored under a's key.
	c.lru.Put(HashInput(a), routeEntry{x: tensor.Vector{9, 9}, expert: 7, matched: true, version: 1})
	if _, _, ok := c.get(a, 1); ok {
		t.Fatal("mismatched stored input must miss, not return a stale decision")
	}
}

func TestHashInputDistinguishesOrder(t *testing.T) {
	if HashInput(tensor.Vector{1, 2}) == HashInput(tensor.Vector{2, 1}) {
		t.Fatal("hash must depend on element order")
	}
	if HashInput(nil) != HashInput(tensor.Vector{}) {
		t.Fatal("nil and empty must hash alike")
	}
}
