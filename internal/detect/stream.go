package detect

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intellog/internal/extract"
	"intellog/internal/logging"
	"intellog/internal/par"
	"intellog/internal/spell"
)

// StreamConfig tunes the online detector.
type StreamConfig struct {
	// IdleTimeout closes a session when its log time falls this far behind
	// the newest record seen on any session. Zero disables idle
	// finalization. Idleness is judged by log timestamps (event time), not
	// wall-clock, so replayed corpora behave identically to live streams.
	IdleTimeout time.Duration
	// MaxSessions bounds the number of in-flight sessions; when a new
	// session would exceed it, the longest-idle session is force-closed
	// with an Overflow anomaly. Zero means unbounded.
	MaxSessions int
	// MaxSessionMsgs bounds the Intel Messages buffered per session; once
	// reached, further matched messages are dropped and a single Overflow
	// anomaly is emitted for the session. Zero means unbounded.
	MaxSessionMsgs int
}

// StreamDetector consumes log records one at a time — the online mode of
// Fig. 2, where IntelLog "consumes newly incoming logs and automatically
// reports anomalies". Unexpected messages are reported immediately;
// HW-graph instance checks run when a session ends (explicitly, after
// IdleTimeout with no records, or when a resource cap forces it closed).
//
// Consume, CloseSession, Pending and State are safe for concurrent use:
// one mutex guards the session table, and the expensive halves of the hot
// path — resolving a record and the end-of-session checks — run outside
// it. Idle expiry is driven by a min-heap keyed by last-record time, so
// consuming a record costs O(log sessions) in the worst case and O(1)
// when nothing is idle — there is no per-record scan of the session table.
// The sessions one record closes (idle expiry can close many at once,
// plus at most one cap eviction) are checked concurrently, as Flush's
// are, and their findings are emitted in a fixed order: the eviction
// first, then the expired sessions oldest first, then the record's own.
type StreamDetector struct {
	cfg StreamConfig
	d   *Detector

	mu       sync.Mutex
	sessions map[string]*sessionBuf
	heap     expiryHeap
	latest   int64  // newest record time seen (UnixNano)
	seen     uint64 // sessions ever opened (Report.Sessions)
	startSeq uint64 // session arrival order, survives checkpoints

	anomSeq atomic.Uint64 // anomaly emission order (Anomaly.Seq), survives checkpoints
}

// sessionBuf accumulates one in-flight session. msgs holds the shared
// bound prototypes (the structural checks read only rendering-derived
// fields, so no per-record copy is made); times carries each record's
// timestamp positionally, which is all the checkpoint snapshot needs.
type sessionBuf struct {
	id          string
	fw          logging.Framework
	msgs        []*extract.Message
	times       []time.Time
	first, last time.Time
	startSeq    uint64
	overflowed  bool // MaxSessionMsgs hit; further messages dropped
	dropped     int  // messages dropped after overflow
}

// sessionBufs recycles session buffers across open/finalize cycles. A
// high-churn stream (short sessions, hostile churn profiles) otherwise
// allocates one buffer plus two growing slices per session; recycling
// keeps the msgs/times capacity from the previous tenant of the buffer.
// Safe because checkInstances does not retain msgs, and every string an
// emitted Anomaly keeps (session ID, details) is a value-copied header
// onto immutable bytes.
var sessionBufs = sync.Pool{New: func() any { return new(sessionBuf) }}

// newSessionBuf rents a reset buffer and stamps its identity fields.
func newSessionBuf(id string, fw logging.Framework, at time.Time, startSeq uint64) *sessionBuf {
	b := sessionBufs.Get().(*sessionBuf)
	b.id, b.fw = id, fw
	b.first, b.last = at, at
	b.startSeq = startSeq
	return b
}

// releaseSessionBuf returns a finalized buffer to the pool. The msgs
// capacity keeps its prototype pointers — they reference model-owned
// prototypes that outlive every buffer, so pinning them is harmless and
// skipping the clear keeps release O(1).
func releaseSessionBuf(b *sessionBuf) {
	b.id = ""
	b.fw = logging.Framework("")
	b.msgs = b.msgs[:0]
	b.times = b.times[:0]
	b.first, b.last = time.Time{}, time.Time{}
	b.startSeq = 0
	b.overflowed = false
	b.dropped = 0
	sessionBufs.Put(b)
}

// expiryEntry schedules one session's idle check. Entries are lazily
// invalidated: a session touched after its entry was pushed simply gets a
// fresh entry when the stale one surfaces, so no per-record heap fix-up is
// needed.
type expiryEntry struct {
	at int64 // session's last-record time when pushed (UnixNano)
	id string
}

// expiryHeap is a binary min-heap of expiryEntry by time.
type expiryHeap []expiryEntry

func (h *expiryHeap) push(e expiryEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].at <= (*h)[i].at {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *expiryHeap) pop() expiryEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = expiryEntry{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && old[l].at < old[m].at {
			m = l
		}
		if r < n && old[r].at < old[m].at {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// NewStream wraps a trained Detector for streaming consumption.
func NewStream(d *Detector, cfg StreamConfig) *StreamDetector {
	return &StreamDetector{
		cfg:      cfg,
		d:        d,
		sessions: make(map[string]*sessionBuf),
		latest:   math.MinInt64,
	}
}

// trackExpiry reports whether the heap is maintained at all; with no
// idle timeout and no session cap it is skipped entirely, so the
// hot path carries no scheduling overhead.
func (s *StreamDetector) trackExpiry() bool {
	return s.cfg.IdleTimeout > 0 || s.cfg.MaxSessions > 0
}

// Pending returns the number of in-flight sessions.
func (s *StreamDetector) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// ExpiryDepth returns the number of scheduled expiry-heap entries — an
// observability hook (the serving layer exports it as a gauge). Lazily
// invalidated entries are counted until they surface, so the depth can
// exceed Pending; a steadily growing gap signals a stream whose sessions
// are touched far more often than they expire.
func (s *StreamDetector) ExpiryDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// AnomalySeq returns the sequence number of the last anomaly stamped
// (zero before any finding). The next emitted anomaly gets AnomalySeq+1.
func (s *StreamDetector) AnomalySeq() uint64 { return s.anomSeq.Load() }

// stamp assigns each anomaly the next emission sequence number. Slices
// from one call are stamped contiguously; concurrent Consume calls
// interleave their ranges but every anomaly still gets a unique,
// strictly increasing number.
func (s *StreamDetector) stamp(as []Anomaly) []Anomaly {
	if len(as) == 0 {
		return as
	}
	last := s.anomSeq.Add(uint64(len(as)))
	first := last - uint64(len(as)) + 1
	for i := range as {
		as[i].Seq = first + uint64(i)
	}
	return as
}

// SessionsSeen returns the number of sessions opened since construction
// (or since the checkpoint the detector was restored from).
func (s *StreamDetector) SessionsSeen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.seen)
}

// Consume processes one record. The returned anomalies are the immediate
// findings: an unexpected-message report for this record, an overflow
// report if a resource cap was hit, plus the end-of-session findings of
// any session the record's timestamp idles out. The record's own session
// is exempt from idle expiry — its arrival proves the session alive, so
// it can never idle itself out (even with an out-of-order timestamp).
func (s *StreamDetector) Consume(rec logging.Record) []Anomaly {
	// Resolve the record before taking the lock; the lookup cache is
	// concurrency-safe and this is the expensive part of the hot path.
	scr := s.d.getScratch()
	key, cl := s.d.lookupRecord(&rec, scr)
	s.d.putScratch(scr)
	return s.consumeResolved(nil, rec, key, cl)
}

// ConsumeBatch processes a slice of records with the pipeline split into
// two stages: the resolution stage (cache probe, and on a miss tokenize,
// Spell lookup, prototype bind — the CPU-heavy part) fans out across a
// worker pool, and the apply stage runs strictly in input order on the
// calling goroutine. Because resolution is a pure function of the raw
// text under a fixed model, the returned anomalies are identical to
// calling Consume once per record in order — only the wall-clock
// changes. workers ≤ 0 sizes the pool to par.Workers().
func (s *StreamDetector) ConsumeBatch(recs []logging.Record, workers int) []Anomaly {
	return s.consumeStaged(recs, nil, workers)
}

// ConsumeEncoded is ConsumeBatch over count records given as their
// concatenated wal.AppendRecord encodings — a served batch as the ingest
// edge admitted it, or a WAL entry at replay. dec decodes the records
// into its own scratch (so it must not be shared between goroutines),
// and each message is probed against the lookup cache by its bytes,
// once: a hit is the record's resolve and takes the cache's canonical
// string, a miss copies the string and joins the resolve fan-out. The
// records keep no view of body, which the caller may recycle on return.
func (s *StreamDetector) ConsumeEncoded(dec *Decoder, count int, body []byte) ([]Anomaly, error) {
	if err := dec.decode(count, body); err != nil {
		return nil, err
	}
	return s.consumeStaged(dec.recs, dec.msgs, 0), nil
}

// consumeStaged runs the resolve and apply stages over recs. msgs, when
// non-nil, holds each record's message bytes, and recs[i].Message is
// filled from the probe of msgs[i]; nil means the messages are already
// strings.
func (s *StreamDetector) consumeStaged(recs []logging.Record, msgs [][]byte, workers int) []Anomaly {
	if len(recs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	rp := resolvedScratch.Get().(*[]resolvedRec)
	resolved := *rp
	if cap(resolved) < len(recs) {
		resolved = make([]resolvedRec, len(recs))
	} else {
		resolved = resolved[:len(recs)]
	}
	s.resolveStage(recs, msgs, resolved, workers)
	var out []Anomaly
	for i := range recs {
		out = s.consumeResolved(out, recs[i], resolved[i].key, resolved[i].cl)
	}
	*rp = resolved[:0]
	resolvedScratch.Put(rp)
	return out
}

// resolveStage fills resolved with every record's key and memo, probing
// each message against the cache exactly once. The calling goroutine
// probes in order while the probes hit, so a batch with no miss never
// starts the pool; from the first miss on, the rest of the batch is
// strided across workers, each probing its own records and resolving
// its misses with one pooled scratch.
func (s *StreamDetector) resolveStage(recs []logging.Record, msgs [][]byte, resolved []resolvedRec, workers int) {
	first := 0
	for first < len(recs) && s.probe(recs, msgs, first, &resolved[first]) {
		first++
	}
	rest := len(recs) - first
	if rest == 0 {
		return
	}
	workers = min(workers, rest)
	par.ForEach(workers, workers, func(w int) {
		scr := s.d.getScratch()
		defer s.d.putScratch(scr)
		for i := first + w; i < len(recs); i += workers {
			// first has been probed, and missed.
			if i == first || !s.probe(recs, msgs, i, &resolved[i]) {
				if msgs != nil {
					recs[i].Message = string(msgs[i])
				}
				resolved[i].key, resolved[i].cl = s.d.resolveMiss(recs[i].Message, scr)
			}
		}
	})
}

// probe is record i's one cache probe; on a hit it fills r (and, for an
// encoded record, the message string) and reports true.
func (s *StreamDetector) probe(recs []logging.Record, msgs [][]byte, i int, r *resolvedRec) bool {
	var key *spell.Key
	var aux any
	var hit bool
	if msgs != nil {
		recs[i].Message, key, aux, hit = s.d.Cache.Probe(msgs[i])
	} else {
		key, aux, hit = s.d.Cache.GetAux(recs[i].Message)
	}
	if hit {
		r.key, r.cl = key, aux.(*extract.CachedLookup) // every publisher stores one
	}
	return hit
}

// resolvedRec carries one record's resolution-stage result into the
// ordered apply stage.
type resolvedRec struct {
	key *spell.Key
	cl  *extract.CachedLookup
}

// resolvedScratch recycles the per-batch resolution array. Every slot
// in [0, len(recs)) is overwritten by the resolve stage before the
// apply stage reads it, so the array is reused without clearing; the
// pointers a parked array pins reference the model and its bounded
// lookup cache, which outlive the pool.
var resolvedScratch = sync.Pool{New: func() any { return new([]resolvedRec) }}

// consumeResolved is the ordered apply stage: it advances the stream
// clock, buffers (or rejects) the already-resolved record, and collects
// any sessions the record's timestamp idles out. It appends the findings
// to out and returns the extended slice. rec is taken by value and
// copied to the heap only when an unexpected-message anomaly keeps it,
// so a matched record costs no allocation here.
func (s *StreamDetector) consumeResolved(out []Anomaly, rec logging.Record, key *spell.Key, cl *extract.CachedLookup) []Anomaly {
	now := rec.Time.UnixNano()
	s.mu.Lock()
	if now > s.latest {
		s.latest = now // the stream clock: monotone max of record times
	}

	// Expire idle sessions first: freed capacity may spare an eviction
	// below. The current session is exempt.
	var expired []*sessionBuf
	var evicted *sessionBuf
	if s.cfg.IdleTimeout > 0 {
		expired = s.expireLocked(s.latest-int64(s.cfg.IdleTimeout), rec.SessionID)
	}

	buf, ok := s.sessions[rec.SessionID]
	if !ok {
		if max := s.cfg.MaxSessions; max > 0 && len(s.sessions) >= max {
			evicted = s.evictOldestLocked()
		}
		s.startSeq++
		s.seen++
		buf = newSessionBuf(rec.SessionID, rec.Framework, rec.Time, s.startSeq)
		s.sessions[rec.SessionID] = buf
		if s.trackExpiry() {
			s.heap.push(expiryEntry{at: now, id: rec.SessionID})
		}
	} else if rec.Time.After(buf.last) {
		// The heap entry goes stale here; expireLocked refreshes it lazily
		// when it surfaces, so no O(log n) fix-up per record.
		buf.last = rec.Time
	}

	// The record's own finding, if any, is emitted after the findings of
	// the sessions it evicted or idled out.
	var own Anomaly
	hasOwn := false
	switch {
	case key == nil:
		kept := new(logging.Record)
		*kept = rec
		own, hasOwn = s.d.unexpected(rec.SessionID, kept, cl), true
	case cl.Proto == nil:
		// Matched non-NL key: ignore-listed, never an anomaly.
	default:
		if max := s.cfg.MaxSessionMsgs; max > 0 && len(buf.msgs) >= max {
			if !buf.overflowed {
				buf.overflowed, hasOwn = true, true
				own = Anomaly{
					At:      rec.Time,
					Session: buf.id, Kind: Overflow,
					Detail: fmt.Sprintf("session %q reached the %d buffered-message cap; further messages dropped", buf.id, max),
				}
			}
			buf.dropped++
		} else {
			buf.msgs = append(buf.msgs, cl.Proto)
			buf.times = append(buf.times, rec.Time)
		}
	}
	s.mu.Unlock()

	// Finalize outside the lock: the bufs are out of the table, so they are
	// exclusively owned here and go back to the pool once checked. The
	// findings splice in a fixed order — the eviction's Overflow, the
	// evicted session's findings, the expired sessions oldest first, then
	// the record's own — however the checks were scheduled.
	n := len(out)
	closed := expired
	if evicted != nil {
		out = append(out, Anomaly{
			At:      evicted.last,
			Session: evicted.id, Kind: Overflow,
			Detail: fmt.Sprintf("session %q force-closed: %d in-flight sessions reached the cap", evicted.id, s.cfg.MaxSessions),
		})
		closed = append([]*sessionBuf{evicted}, expired...)
	}
	if len(closed) > 0 {
		for _, found := range s.finalizeEach(closed) {
			out = append(out, found...)
		}
	}
	if hasOwn {
		out = append(out, own)
	}
	s.stamp(out[n:])
	return out
}

// expireLocked removes and returns, oldest first, every session whose
// last record is older than cutoff, skipping exempt. Stale heap entries
// (their session was touched or closed since the push) are dropped or
// refreshed as they surface. Caller holds s.mu.
func (s *StreamDetector) expireLocked(cutoff int64, exempt string) []*sessionBuf {
	var out []*sessionBuf
	var deferred expiryEntry
	hasDeferred := false
	for len(s.heap) > 0 && s.heap[0].at < cutoff {
		e := s.heap.pop()
		buf := s.sessions[e.id]
		if buf == nil {
			continue // session closed since the entry was pushed
		}
		if last := buf.last.UnixNano(); last > e.at {
			s.heap.push(expiryEntry{at: last, id: e.id}) // refresh stale entry
			continue
		}
		if e.id == exempt {
			// Keep the exempt session scheduled, but re-push only after the
			// loop — re-pushing an entry already past the cutoff now would
			// surface it again immediately.
			deferred, hasDeferred = e, true
			continue
		}
		delete(s.sessions, e.id)
		out = append(out, buf)
	}
	if hasDeferred {
		s.heap.push(deferred)
	}
	return out
}

// evictOldestLocked removes and returns the longest-idle session, or nil
// if none is scheduled. Caller holds s.mu.
func (s *StreamDetector) evictOldestLocked() *sessionBuf {
	for len(s.heap) > 0 {
		e := s.heap.pop()
		buf := s.sessions[e.id]
		if buf == nil {
			continue
		}
		if last := buf.last.UnixNano(); last > e.at {
			s.heap.push(expiryEntry{at: last, id: e.id})
			continue
		}
		delete(s.sessions, e.id)
		return buf
	}
	return nil
}

// finalizeEach runs the end-of-session structural checks on bufs — owned
// buffers, already out of the table — and returns each buffer's findings
// in its own slot, so callers splice them in bufs order whatever order
// the checks finished in. Each buffer goes back to the pool once checked.
// Several buffers fan out over up to par.Workers() goroutines, each
// taking the next unchecked buffer (sessions differ widely in size) with
// one pooled scratch; a single buffer is checked on the calling
// goroutine.
func (s *StreamDetector) finalizeEach(bufs []*sessionBuf) [][]Anomaly {
	found := make([][]Anomaly, len(bufs))
	workers := min(par.Workers(), len(bufs))
	var next atomic.Int64
	par.ForEach(workers, workers, func(int) {
		scr := s.d.getScratch()
		defer s.d.putScratch(scr)
		for i := int(next.Add(1) - 1); i < len(bufs); i = int(next.Add(1) - 1) {
			b := bufs[i]
			found[i] = s.d.checkInstances(b.id, b.last, b.msgs, scr)
			releaseSessionBuf(b)
		}
	})
	return found
}

// CloseSession finalizes one session and returns its structural findings.
func (s *StreamDetector) CloseSession(id string) []Anomaly {
	s.mu.Lock()
	buf, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return s.stamp(s.finalizeEach([]*sessionBuf{buf})[0])
}

// Flush finalizes every in-flight session (end of stream) and returns the
// combined report. Sessions finalize in first-record-time order (ties by
// arrival), matching the batch detector's session ordering; the checks
// themselves run on a worker pool. Report.Sessions counts every session
// the stream opened, not just those still in flight.
func (s *StreamDetector) Flush() *Report {
	s.mu.Lock()
	bufs := make([]*sessionBuf, 0, len(s.sessions))
	for _, b := range s.sessions {
		bufs = append(bufs, b)
	}
	s.sessions = make(map[string]*sessionBuf)
	s.heap = s.heap[:0]
	r := &Report{Sessions: int(s.seen)}
	s.mu.Unlock()
	sort.Slice(bufs, func(i, j int) bool {
		if !bufs[i].first.Equal(bufs[j].first) {
			return bufs[i].first.Before(bufs[j].first)
		}
		return bufs[i].startSeq < bufs[j].startSeq
	})
	for _, found := range s.finalizeEach(bufs) {
		r.Anomalies = append(r.Anomalies, found...)
	}
	// Stamp after the parallel finalize, in report order, so Flush
	// findings extend the stream's emission sequence monotonically.
	s.stamp(r.Anomalies)
	return r
}
