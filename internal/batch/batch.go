// Package batch is the pooled record-batch lifecycle of the serving hot
// path. The ingest wires (NDJSON and ILS1) admit thousands of batches
// per second, and before this package each batch was freshly allocated
// and died the moment the detector consumed it — steady-state serving
// spent ~30% of its CPU in the collector walking that churn. A Batch
// instead rents its buffer from a Pool and is handed off, owner to
// owner, along the whole path:
//
//	validate → admission → WAL append → queue placement → decode + resolve + apply → Release
//
// exactly one goroutine owns a live Batch at any moment, and the final
// owner returns it to the pool for the next fill.
//
// A batch holds its records encoded, as the concatenated
// wal.AppendRecord encodings the ILS1 wire and the WAL entry already
// use: the ingest edge copies (or, for NDJSON, encodes) the bytes once,
// the WAL appends them as they are, and the tenant worker decodes them
// once, off the ack path. The buffer is pointer-free, so a parked batch
// costs the collector nothing to scan.
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
	"slices"
	"sync"
	"sync/atomic"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// DefaultBodyCap is the buffer capacity of a freshly allocated Batch —
// sized for the replay client's 512-record batches of ≈ 100-byte
// encoded records, so the first fill takes no growth step. Grow handles
// bigger batches.
const DefaultBodyCap = 64 << 10

// maxParked bounds the freelist. maxParked × DefaultBodyCap is the
// pool's worst-case parked footprint (16 MiB); beyond it a released
// batch is surrendered to the GC instead of parked.
const maxParked = 256

// Batch is one pooled record batch: N records, encoded back to back in
// Body in wal.AppendRecord's layout. Callers append to Body directly
// (bumping N) or through Append, and may rebuild it in place. The batch
// is single-owner: whoever holds it may touch Body, and exactly one
// owner must eventually call Release, after which the batch (and any
// view of Body) must not be touched again.
type Batch struct {
	Body []byte
	N    int

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
	hits        uint64            // Get served from the freelist
	misses      uint64            // Get allocated fresh (freelist empty)
	outstanding int64             // live batches (Get minus Release)
	leaked      uint64            // dropped-without-Release batches (leak-detect mode)
	leakReport  func(bodyCap int) // test hook, set by DetectLeaks

	bodyCap int
}

// NewPool builds a pool whose fresh batches start with a bodyCap-byte
// buffer (0 = DefaultBodyCap).
func NewPool(bodyCap int) *Pool {
	if bodyCap <= 0 {
		bodyCap = DefaultBodyCap
	}
	return &Pool{bodyCap: bodyCap}
}

// Get rents an empty batch. The caller owns it until it
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
		b = &Batch{Body: make([]byte, 0, p.bodyCap), pool: p}
	}
	b.live.Store(1)
	if report != nil {
		p.armCanary(b)
	}
	return b
}

// Len returns the number of records in the fill.
func (b *Batch) Len() int { return b.N }

// Append encodes one record onto the fill.
func (b *Batch) Append(rec logging.Record) {
	b.Body = wal.AppendRecord(b.Body, &rec)
	b.N++
}

// Grow ensures room for at least n more bytes, so a caller with a size
// hint (Content-Length, frame length) pays at most one growth step
// instead of log₂(n) of them.
func (b *Batch) Grow(n int) {
	b.Body = slices.Grow(b.Body, n)
}

// Release returns the batch to its pool. It must be called exactly once
// per Get, by whichever owner the batch ended up with; a second call
// panics. After Release the batch and every view of Body are invalid.
func (b *Batch) Release() {
	if !b.live.CompareAndSwap(1, 0) {
		panic(fmt.Sprintf("batch: double release of %d-byte batch", cap(b.Body)))
	}
	if b.canary != nil {
		runtime.SetFinalizer(b.canary, nil)
	}
	b.Body, b.N = b.Body[:0], 0
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
func (p *Pool) DetectLeaks(report func(bodyCap int)) {
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
	b.canary.capa = cap(b.Body)
	runtime.SetFinalizer(b.canary, func(c *leakCanary) {
		c.pool.mu.Lock()
		c.pool.leaked++
		c.pool.outstanding--
		rep := c.pool.leakReport
		c.pool.mu.Unlock()
		rep(c.capa)
	})
}
