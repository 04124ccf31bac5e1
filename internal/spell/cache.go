package spell

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LookupCache memoizes Parser.Lookup by raw message text. Analytics logs
// repeat a few thousand distinct renderings millions of times (the same
// template with the same values — heartbeats, progress lines, idempotent
// retries), so an exact-message cache turns the per-record
// Tokenize+Lookup cost into a single map probe for every repeat.
//
// Misses are cached too (key == nil): an unmatched rendering stays
// unmatched for as long as the parser's keys are fixed, and anomaly
// streams tend to repeat the same unexpected message.
//
// The cache is only sound while the parser's keys are no longer being
// refined — i.e. after training, which is exactly when BindSession and
// the detectors run. It is safe for concurrent use; hits take only a
// read lock while the cache is under half capacity (recency order is
// irrelevant until eviction is near), so concurrent readers do not
// serialize on the common path.
type LookupCache struct {
	mu           sync.RWMutex
	cap          int
	ll           *list.List // front = most recently used
	m            map[string]*list.Element
	len          atomic.Int64 // mirrors ll.Len() for lock-free reads
	hits, misses atomic.Uint64
}

// cacheEntry is one LRU node.
type cacheEntry struct {
	msg string
	key *Key // nil for a cached miss
	// aux carries caller-owned derived data for msg (e.g. its token
	// split, or a bound message prototype) so a hit can skip recomputing
	// it. Opaque to the cache.
	aux any
}

// DefaultLookupCacheSize bounds a cache built with capacity ≤ 0. 64k
// distinct renderings cover the working set of every corpus in the
// evaluation with room to spare. Measured with the detector's memo (an
// HDFS rendering with two identifiers and its Algorithm-2 prototype), an
// entry holds ≈ 570 B of live heap plus the message text, so a full cache
// is ≈ 37 MB plus the text.
const DefaultLookupCacheSize = 1 << 16

// NewLookupCache returns an empty cache holding at most capacity distinct
// messages; capacity ≤ 0 uses DefaultLookupCacheSize.
func NewLookupCache(capacity int) *LookupCache {
	if capacity <= 0 {
		capacity = DefaultLookupCacheSize
	}
	return &LookupCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element, 1024),
	}
}

// Get returns the cached key for msg. hit distinguishes a cached miss
// (nil, true) from an absent entry (nil, false).
func (c *LookupCache) Get(msg string) (key *Key, hit bool) {
	key, _, hit = c.GetAux(msg)
	return key, hit
}

// GetAux is Get returning the entry's aux value as well.
func (c *LookupCache) GetAux(msg string) (key *Key, aux any, hit bool) {
	// Fast path: while the cache is under half capacity no entry is close
	// to eviction, so recency bookkeeping can be skipped and hits served
	// under the shared lock. Entries are immutable once linked (AddAux
	// replaces fields under the write lock, which excludes readers).
	if c.len.Load() < int64(c.cap/2) {
		c.mu.RLock()
		e, ok := c.m[msg]
		if ok {
			ent := e.Value.(*cacheEntry)
			key, aux = ent.key, ent.aux
		}
		c.mu.RUnlock()
		if ok {
			c.hits.Add(1)
			return key, aux, true
		}
		c.misses.Add(1)
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[msg]; ok {
		c.ll.MoveToFront(e)
		c.hits.Add(1)
		ent := e.Value.(*cacheEntry)
		return ent.key, ent.aux, true
	}
	c.misses.Add(1)
	return nil, nil, false
}

// Peek probes the cache with raw message bytes, returning the canonical
// stored string for msg on a hit. It is the zero-copy entry point of the
// ingest path: a decoder holding a []byte view resolves it to the
// interned rendering the model already owns without materializing a
// string first (the map probe compiles to a no-alloc lookup). Peek takes
// only the read lock and touches neither recency order nor the hit/miss
// counters — it is a side-effect-free probe, so a decoder consulting it
// ahead of detection does not double-count the record's real lookup.
func (c *LookupCache) Peek(msg []byte) (canon string, key *Key, aux any, hit bool) {
	c.mu.RLock()
	e, ok := c.m[string(msg)] // no-alloc lookup
	if ok {
		ent := e.Value.(*cacheEntry)
		canon, key, aux = ent.msg, ent.key, ent.aux
	}
	c.mu.RUnlock()
	return canon, key, aux, ok
}

// AddHits folds n hits into the hit counter in one atomic add. Worker-
// local memo layers (the detector's per-scratch L1) count their hits
// locally and flush here when the scratch retires, so the shared counter
// stays accurate without a contended atomic per record.
func (c *LookupCache) AddHits(n uint64) {
	if n > 0 {
		c.hits.Add(n)
	}
}

// Add records the lookup result for msg (key may be nil), evicting the
// least recently used entry when full.
func (c *LookupCache) Add(msg string, key *Key) { c.AddAux(msg, key, nil) }

// AddAux is Add attaching an opaque aux value to the entry.
func (c *LookupCache) AddAux(msg string, key *Key, aux any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[msg]; ok {
		ent := e.Value.(*cacheEntry)
		ent.key, ent.aux = key, aux
		c.ll.MoveToFront(e)
		return
	}
	c.m[msg] = c.ll.PushFront(&cacheEntry{msg: msg, key: key, aux: aux})
	if c.ll.Len() > c.cap {
		e := c.ll.Back()
		c.ll.Remove(e)
		delete(c.m, e.Value.(*cacheEntry).msg)
	}
	c.len.Store(int64(c.ll.Len()))
}

// Len returns the number of cached messages.
func (c *LookupCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ll.Len()
}

// Stats returns the hit/miss counters.
func (c *LookupCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
