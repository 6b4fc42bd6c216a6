package gateway

import (
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// sessionCache is the gateway-level answer cache: (model, input-hash) →
// the full PredictResponse a replica produced, on the same serve.LRU as
// the replica's route cache. It sits in front of the whole replica fleet,
// so a repeated input costs zero network hops — the fleet-wide analogue of
// the replica-local route cache.
//
// Entries carry the snapshot version they were answered under and are
// rejected once the model's fleet is known to serve a NEWER snapshot
// (lazy invalidation: the health prober and every proxied answer advance
// the model's known version, and get compares against it). A gateway can
// therefore never keep answering from a retired snapshot after a hot swap,
// without any explicit flush protocol.
//
// Collisions: keys are 64-bit input hashes without the full input retained
// (the gateway does not want to hold every tensor it proxied). A collision
// returns the colliding entry's answer — acceptable for a cache keyed on
// 64-bit FNV over float bits, where accidental collisions are ~2^-32 even
// at million-entry scale, and the same tradeoff a CDN makes.
type sessionCache struct {
	lru *serve.LRU[sessionKey, sessionEntry]
}

type sessionKey struct {
	model string
	key   uint64
}

type sessionEntry struct {
	resp    httpapi.PredictResponse
	version int
}

// newSessionCache builds a cache holding up to capacity answers;
// capacity <= 0 disables caching.
func newSessionCache(capacity int) sessionCache {
	return sessionCache{serve.NewLRU[sessionKey, sessionEntry](capacity)}
}

// get returns the cached answer for (model, key) if it was produced under
// the model's current snapshot version. Stale entries are evicted on
// sight (a fresh answer put between the read and the eviction is dropped
// with it, which costs one extra miss).
func (c sessionCache) get(model string, key uint64, currentVersion int) (httpapi.PredictResponse, bool) {
	sk := sessionKey{model, key}
	e, ok := c.lru.Get(sk)
	if !ok {
		return httpapi.PredictResponse{}, false
	}
	if e.version < currentVersion {
		c.lru.Remove(sk)
		return httpapi.PredictResponse{}, false
	}
	return e.resp, true
}

// put records a replica answer under the snapshot version it reported.
func (c sessionCache) put(model string, key uint64, version int, resp httpapi.PredictResponse) {
	c.lru.Put(sessionKey{model, key}, sessionEntry{resp: resp, version: version})
}
