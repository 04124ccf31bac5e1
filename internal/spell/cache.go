package spell

import (
	"container/list"
	"sync"
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
// the detectors run. It is safe for concurrent use: GetAux and AddAux
// take the exclusive lock (a hit refreshes recency), Peek, Len and Stats
// the shared one.
type LookupCache struct {
	mu           sync.RWMutex
	cap          int
	ll           *list.List // front = most recently used
	m            map[string]*list.Element
	hits, misses uint64 // GetAux's counters, under the exclusive lock
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

// GetAux returns the cached key and aux value for msg and counts the
// probe as a hit or a miss. hit distinguishes a cached miss (nil key,
// true) from an absent entry (false). Every probe takes the exclusive
// lock and a hit moves its entry to the front: a served stream's cache
// is past half full once warm (HDFS fills it, a Spark cycle holds
// 45–55k renderings), so recency matters on every hit. Batch detection
// over a corpus stays far below capacity and pays for that lock too:
// its shards contend on it where they used to share a read lock.
func (c *LookupCache) GetAux(msg string) (key *Key, aux any, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[msg]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		ent := e.Value.(*cacheEntry)
		return ent.key, ent.aux, true
	}
	c.misses++
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

// AddAux records the lookup result for msg (key may be nil) with an
// opaque aux value, evicting the least recently used entry when full.
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
}

// Len returns the number of cached messages.
func (c *LookupCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ll.Len()
}

// Stats returns the hit/miss counters.
func (c *LookupCache) Stats() (hits, misses uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}
