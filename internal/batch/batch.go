// Package batch is the pooled record-batch lifecycle of the serving hot
// path. The ingest wires (NDJSON and ILS1) decode thousands of batches
// per second, and before this package each batch was a freshly allocated
// []logging.Record that died the moment the detector consumed it —
// steady-state serving spent ~30% of its CPU in the collector walking
// that churn. A Batch instead rents its backing array from a Pool and is
// handed off, owner to owner, along the whole path:
//
//	decode → admission → WAL append → queue placement → ordered apply → Release
//
// exactly one goroutine owns a live Batch at any moment, and the final
// owner returns it to the pool for the next fill.
//
// The backing store is deliberately pointer-sparse: records are stored
// by value, and callers resolve strings through the model's interner /
// lookup cache before appending, so a batch holds canonical string
// references rather than private copies. Releasing does not zero the
// array — the strings a parked batch pins are interned and shared with
// the model anyway, and the next fill overwrites the headers.
//
// The ownership contract is enforced, not documented-and-hoped:
// releasing a batch twice panics (atomically checked, so the panic fires
// under -race too, not instead of it), and a test-mode leak detector
// (DetectLeaks) catches batches that were acquired and then dropped
// without Release — the bug that would silently re-grow GC pressure.
package batch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"intellog/internal/logging"
)

// DefaultRecordCap is the backing-array capacity of a freshly allocated
// Batch — sized for the replay client's default 256–512-record batches
// so the first fill takes no growth step. Grow handles bigger batches.
const DefaultRecordCap = 512

// maxParked bounds the freelist. maxParked × DefaultRecordCap record
// headers is the pool's worst-case parked footprint (≈ 17 MB of 128-byte
// records); beyond it a released batch is surrendered to the GC instead
// of parked.
const maxParked = 256

// Batch is one pooled record batch. Recs is the live fill — callers
// append to it directly (or through Append) and may re-slice it in
// place, e.g. to filter invalid records out before hand-off. The batch
// is single-owner: whoever holds it may touch Recs, and exactly one
// owner must eventually call Release, after which the batch (and any
// view of Recs) must not be touched again.
type Batch struct {
	Recs []logging.Record

	pool *Pool
	// live is 1 between Get and Release; the CAS in Release makes a
	// double release a deterministic panic rather than a data race.
	live atomic.Int32
	// canary, in leak-detect mode, is finalizer-armed so a live batch
	// dropped without Release surfaces as a counted leak (see
	// DetectLeaks). nil outside tests.
	canary *leakCanary
}

// leakCanary is the finalizer target of leak-detect mode. It lives and
// dies with its batch but is a separate allocation, so arming and
// disarming the finalizer never resurrects the batch itself.
type leakCanary struct {
	pool *Pool
	capa int
}

// Pool is a LIFO free list of Batches under one mutex. The zero value
// is not usable; call NewPool. All methods are safe for concurrent use.
//
// One list suffices: ingest runs a handful of handler goroutines plus
// the tenant workers, the critical section is a slice push or pop, and
// a rent after a release on one goroutine gets the batch it just
// released back (LIFO keeps it cache-warm).
type Pool struct {
	mu   sync.Mutex
	free []*Batch

	// Accounting, all under mu.
	hits        uint64              // Get served from the freelist
	misses      uint64              // Get allocated fresh (freelist empty)
	outstanding int64               // live batches (Get minus Release)
	leaked      uint64              // dropped-without-Release batches (leak-detect mode)
	leakReport  func(recordCap int) // test hook, set by DetectLeaks

	recordCap int
}

// NewPool builds a pool whose fresh batches start with capacity
// recordCap (0 = DefaultRecordCap).
func NewPool(recordCap int) *Pool {
	if recordCap <= 0 {
		recordCap = DefaultRecordCap
	}
	return &Pool{recordCap: recordCap}
}

// Get rents a batch with len(Recs) == 0. The caller owns it until it
// either calls Release or hands ownership to exactly one next owner.
func (p *Pool) Get() *Batch {
	var b *Batch
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.hits++
	} else {
		p.misses++
	}
	p.outstanding++
	report := p.leakReport
	p.mu.Unlock()
	if b == nil {
		b = &Batch{Recs: make([]logging.Record, 0, p.recordCap), pool: p}
	}
	b.live.Store(1)
	if report != nil {
		p.armCanary(b)
	}
	return b
}

// Len returns the number of records in the fill.
func (b *Batch) Len() int { return len(b.Recs) }

// Append adds one record to the fill.
func (b *Batch) Append(rec logging.Record) { b.Recs = append(b.Recs, rec) }

// Grow ensures capacity for at least n total records, so a caller with a
// size hint (Content-Length, frame record count) pays at most one growth
// step instead of log₂(n) of them.
func (b *Batch) Grow(n int) {
	if n <= cap(b.Recs) {
		return
	}
	grown := make([]logging.Record, len(b.Recs), n)
	copy(grown, b.Recs)
	b.Recs = grown
}

// Release returns the batch to its pool. It must be called exactly once
// per Get, by whichever owner the batch ended up with; a second call
// panics. After Release the batch and every view of Recs are invalid.
func (b *Batch) Release() {
	if !b.live.CompareAndSwap(1, 0) {
		panic(fmt.Sprintf("batch: double release of %d-cap batch", cap(b.Recs)))
	}
	if b.canary != nil {
		runtime.SetFinalizer(b.canary, nil)
	}
	b.Recs = b.Recs[:0]
	p := b.pool
	p.mu.Lock()
	p.outstanding--
	// A full freelist surrenders the batch to the GC; its canary is
	// already disarmed, so that is not a leak.
	if len(p.free) < maxParked {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Stats is a point-in-time snapshot of the pool's accounting.
type Stats struct {
	// Hits and Misses partition every Get: served from the freelist, or
	// freshly allocated.
	Hits, Misses uint64
	// Outstanding is the number of live batches right now. At quiesce it
	// must be zero; a steadily growing floor is a leak.
	Outstanding int64
	// Leaked counts batches the leak detector saw dropped without
	// Release (always 0 outside DetectLeaks mode).
	Leaked uint64
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Hits: p.hits, Misses: p.misses, Outstanding: p.outstanding, Leaked: p.leaked}
}

// DetectLeaks arms the leak detector: from now on every batch carries a
// finalizer-backed canary, and a live batch that becomes unreachable
// without Release increments Stats.Leaked and calls report (which may be
// nil). Test-only — the canary costs two SetFinalizer calls per batch
// lifecycle, which the hot path must not pay; production leak visibility
// is the Outstanding gauge instead.
func (p *Pool) DetectLeaks(report func(recordCap int)) {
	p.mu.Lock()
	if report == nil {
		report = func(int) {}
	}
	p.leakReport = report
	p.mu.Unlock()
}

// armCanary gives b a finalizer-armed canary (leak-detect mode only).
func (p *Pool) armCanary(b *Batch) {
	if b.canary == nil {
		b.canary = &leakCanary{pool: p}
	}
	b.canary.capa = cap(b.Recs)
	runtime.SetFinalizer(b.canary, func(c *leakCanary) {
		c.pool.mu.Lock()
		c.pool.leaked++
		c.pool.outstanding--
		rep := c.pool.leakReport
		c.pool.mu.Unlock()
		rep(c.capa)
	})
}
