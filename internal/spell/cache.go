package spell

import (
	"hash/maphash"
	"math"
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
// Eviction is CLOCK (second chance). Entries live in a slot slice that
// the map indexes; a hit sets its entry's visited bit, and an insert into
// a full cache sweeps a hand past visited slots, clearing their bits, to
// the first unvisited one, which it reuses. Admission is TinyLFU's
// doorkeeper (Einziger et al., ACM ToS 2017): once the cache is full, a
// rendering enters only on its second sighting, so a stream of one-shot
// renderings (HDFS block IDs) pays no insert and evicts nothing. Below
// capacity — training, batch detection, a Spark cycle — every insert is
// admitted. Memo contents are pure functions of the rendering, so neither
// policy can change what a lookup returns, only whether it is recomputed.
//
// The cache is only sound while the parser's keys are no longer being
// refined — i.e. after training, which is exactly when BindSession and
// the detectors run. It is safe for concurrent use: GetAux, Peek and Len
// take the shared lock (a hit's visited bit and the counters are atomic),
// AddAux the exclusive one.
type LookupCache struct {
	mu    sync.RWMutex
	cap   int
	slots []cacheEntry
	m     map[string]int32 // message → index into slots
	hand  int              // the next slot a full cache's insert considers

	// door is the doorkeeper bitset, 8 bits per slot, allocated when the
	// cache first fills; doorN counts the first sightings recorded in it
	// since its last clear, which comes after cap of them.
	door  []uint64
	doorN int

	hits, misses, declined atomic.Uint64
}

// cacheEntry is one CLOCK slot.
type cacheEntry struct {
	msg string
	key *Key // nil for a cached miss
	// aux carries caller-owned derived data for msg (e.g. its token
	// split, or a bound message prototype) so a hit can skip recomputing
	// it. Opaque to the cache.
	aux     any
	visited atomic.Bool // set by a hit, cleared by the passing hand
}

// DefaultLookupCacheSize bounds a cache built with capacity ≤ 0. 64k
// distinct renderings cover the working set of every corpus in the
// evaluation with room to spare. The cache's own share of an entry is
// ≈ 75 B: a 48 B slot, ≈ 27 B of map and one doorkeeper byte. Measured
// with the detector's memo (an HDFS rendering with two identifiers and
// its Algorithm-2 prototype), an entry holds ≈ 525 B of live heap plus
// the message text, so a full cache is ≈ 34 MB plus the text.
const DefaultLookupCacheSize = 1 << 16

// doorSeed hashes renderings into every cache's doorkeeper. It is drawn
// once per process and never persisted: it only decides which renderings
// are memoized, never what a lookup returns.
var doorSeed = maphash.MakeSeed()

// NewLookupCache returns an empty cache holding at most capacity distinct
// messages; capacity ≤ 0 uses DefaultLookupCacheSize.
func NewLookupCache(capacity int) *LookupCache {
	if capacity <= 0 {
		capacity = DefaultLookupCacheSize
	}
	return &LookupCache{
		cap: min(capacity, math.MaxInt32),
		m:   make(map[string]int32, 1024),
	}
}

// GetAux returns the cached key and aux value for msg and counts the
// probe as a hit or a miss. hit distinguishes a cached miss (nil key,
// true) from an absent entry (false). It takes only the shared lock at
// every fill level: a hit marks its entry visited with one atomic store,
// skipped when the bit is already set, so concurrent readers of a hot
// entry do not write its cache line.
func (c *LookupCache) GetAux(msg string) (key *Key, aux any, hit bool) {
	c.mu.RLock()
	i, ok := c.m[msg]
	if ok {
		e := &c.slots[i]
		if !e.visited.Load() {
			e.visited.Store(true)
		}
		key, aux = e.key, e.aux
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return key, aux, ok
}

// Peek probes the cache with raw message bytes, returning the canonical
// stored string for msg on a hit. It is the zero-copy entry point of the
// ingest path: a decoder holding a []byte view resolves it to the
// interned rendering the model already owns without materializing a
// string first (the map probe compiles to a no-alloc lookup). Peek takes
// only the read lock and touches neither the visited bit nor the hit/miss
// counters — it is a side-effect-free probe, so a decoder consulting it
// ahead of detection does not double-count the record's real lookup.
func (c *LookupCache) Peek(msg []byte) (canon string, key *Key, aux any, hit bool) {
	c.mu.RLock()
	i, ok := c.m[string(msg)] // no-alloc lookup
	if ok {
		e := &c.slots[i]
		canon, key, aux = e.msg, e.key, e.aux
	}
	c.mu.RUnlock()
	return canon, key, aux, ok
}

// AddAux records the lookup result for msg (key may be nil) with an
// opaque aux value. A present entry is overwritten in place and marked
// visited. Once the cache is full, a first sighting is declined and a
// second evicts the first unvisited slot past the hand.
func (c *LookupCache) AddAux(msg string, key *Key, aux any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.m[msg]; ok {
		e := &c.slots[i]
		e.key, e.aux = key, aux
		e.visited.Store(true)
		return
	}
	if len(c.slots) < c.cap {
		c.m[msg] = int32(len(c.slots))
		c.slots = append(c.slots, cacheEntry{msg: msg, key: key, aux: aux})
		return
	}
	if !c.sightedBefore(msg) {
		c.declined.Add(1)
		return
	}
	// Ends within one lap: nothing sets a bit under the exclusive lock.
	for c.slots[c.hand].visited.Load() {
		c.slots[c.hand].visited.Store(false)
		c.hand = (c.hand + 1) % c.cap
	}
	e := &c.slots[c.hand]
	delete(c.m, e.msg)
	e.msg, e.key, e.aux = msg, key, aux
	c.m[msg] = int32(c.hand)
	c.hand = (c.hand + 1) % c.cap
}

// sightedBefore reports whether the doorkeeper has seen msg since its
// last clear, and records the sighting if not. The two bit positions come
// from one hash; cap recorded first sightings set at most a quarter of
// the bits (≈ 22 % expected), so just before a clear a one-shot rendering
// passes for a repeat ≈ 5 % of the time, and ≈ 2 % on average over a
// clear cycle.
func (c *LookupCache) sightedBefore(msg string) bool {
	if c.door == nil {
		c.door = make([]uint64, (c.cap+7)/8)
	}
	h := maphash.String(doorSeed, msg)
	bits := uint64(len(c.door)) * 64
	a, b := h%bits, (h>>32)%bits
	wa, ma := a/64, uint64(1)<<(a%64)
	wb, mb := b/64, uint64(1)<<(b%64)
	if c.door[wa]&ma != 0 && c.door[wb]&mb != 0 {
		return true
	}
	c.door[wa] |= ma
	c.door[wb] |= mb
	if c.doorN++; c.doorN >= c.cap {
		clear(c.door)
		c.doorN = 0
	}
	return false
}

// Len returns the number of cached messages.
func (c *LookupCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slots)
}

// Stats returns the hit/miss counters.
func (c *LookupCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Declined returns how many inserts the doorkeeper turned away: first
// sightings of a rendering while the cache was full.
func (c *LookupCache) Declined() uint64 {
	return c.declined.Load()
}
