package server

import (
	"container/list"
	"sync"

	naru "repro"
)

// cacheEpoch identifies the serving state a cached answer was computed
// against. Three fields because three different events change what a query
// answers to without the query text changing:
//
//   - version: a lifecycle hot-swap installs a new model (new weights, maybe
//     new domains);
//   - stale: the drift monitor flipping the stale flag means appended rows
//     have shifted the distribution — answers are still deterministic, but an
//     operator who marked the model stale should not keep seeing pre-drift
//     cache hits reported as fresh serving;
//   - rows: an append extends the snapshot (and possibly the dictionaries)
//     even before any drift or swap, which changes both the literal→code
//     compilation of future queries and the row count cardinality is derived
//     from.
//
// An entry is valid only while the live epoch compares equal to the epoch it
// was captured under; any bump makes every prior entry unservable.
type cacheEpoch struct {
	version uint64
	stale   bool
	rows    int
}

// cacheEntry is one cached estimate, keyed by the query's canonical
// fingerprint.
type cacheEntry struct {
	key   string
	epoch cacheEpoch
	res   naru.Result
}

// resultCache is a per-tenant LRU of deterministic estimates keyed by
// predicate fingerprint. Correctness leans entirely on the serving path's
// determinism contract: for a fixed (model version, seed) a query's estimate
// is bit-identical across the batch, fused and gated entry points, so
// replaying a stored Result is indistinguishable from re-running the query —
// provided the epoch still matches. Safe for concurrent use.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // -> *cacheEntry
	lru     list.List                // front = most recent
}

// newResultCache builds a cache bounded to capacity entries (<= 0 returns
// nil: a nil *resultCache is a valid always-miss cache).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{cap: capacity, entries: make(map[string]*list.Element)}
}

// get returns the cached result for key if it was captured under exactly the
// given epoch. An entry from a superseded epoch is evicted on sight — it can
// never become valid again, so there is no reason to let it age out.
func (c *resultCache) get(key string, epoch cacheEpoch) (naru.Result, bool) {
	if c == nil {
		return naru.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return naru.Result{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch {
		c.lru.Remove(el)
		delete(c.entries, key)
		return naru.Result{}, false
	}
	c.lru.MoveToFront(el)
	return ent.res, true
}

// put stores a result under (key, epoch), evicting the least-recently-used
// entry when full. A racing hot-swap between the caller reading its epoch and
// this insert is harmless: the entry is stored under the OLD epoch and the
// next get under the new epoch evicts it unserved.
func (c *resultCache) put(key string, epoch cacheEpoch, res naru.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.epoch, ent.res = epoch, res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, epoch: epoch, res: res})
	for len(c.entries) > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the current entry count (tests).
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheable reports whether a served result may be replayed from the cache.
// Only clean full-quality model answers qualify: failures, fallbacks, sheds,
// breaker rejections, and deadline-degraded answers all depend on transient
// conditions (load, breaker state, wall-clock pressure) that the epoch does
// not capture. StopTargetStdErr is fine — the adaptive early stop is a
// deterministic function of the sample stream, not of load.
func cacheable(res naru.Result) bool {
	if res.Err != nil || res.Source != naru.SourceModel {
		return false
	}
	return res.Stop == naru.StopNone || res.Stop == naru.StopTargetStdErr
}
