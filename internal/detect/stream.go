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
// two stages: the resolution stage (tokenize, Spell lookup, prototype
// bind — the CPU-heavy part) fans out across a worker pool, and the apply
// stage runs strictly in input order on the calling goroutine. Because
// resolution is a pure function of the raw text under a fixed model, the
// returned anomalies are identical to calling Consume once per record in
// order — only the wall-clock changes. workers ≤ 0 sizes the pool to
// par.Workers().
func (s *StreamDetector) ConsumeBatch(recs []logging.Record, workers int) []Anomaly {
	if len(recs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > len(recs) {
		workers = len(recs)
	}
	rp := resolvedScratch.Get().(*[]resolvedRec)
	resolved := *rp
	if cap(resolved) < len(recs) {
		resolved = make([]resolvedRec, len(recs))
	} else {
		resolved = resolved[:len(recs)]
	}
	// Stride the batch across workers (not one task per record) so each
	// worker takes one pooled scratch for the token split of its misses.
	par.ForEach(workers, workers, func(w int) {
		scr := s.d.getScratch()
		defer s.d.putScratch(scr)
		for i := w; i < len(recs); i += workers {
			resolved[i].key, resolved[i].cl = s.d.lookupRecord(&recs[i], scr)
		}
	})
	var out []Anomaly
	for i := range recs {
		out = s.consumeResolved(out, recs[i], resolved[i].key, resolved[i].cl)
	}
	*rp = resolved[:0]
	resolvedScratch.Put(rp)
	return out
}

// resolvedRec carries one record's resolution-stage result into the
// ordered apply stage.
type resolvedRec struct {
	key *spell.Key
	cl  *extract.CachedLookup
}

// resolvedScratch recycles the per-ConsumeBatch resolution array. Every
// slot in [0, len(recs)) is overwritten by the resolve stage before the
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
	// exclusively owned here and go back to the pool once checked.
	n := len(out)
	if evicted != nil {
		out = append(out, Anomaly{
			At:      evicted.last,
			Session: evicted.id, Kind: Overflow,
			Detail: fmt.Sprintf("session %q force-closed: %d in-flight sessions reached the cap", evicted.id, s.cfg.MaxSessions),
		})
		out = append(out, s.finalize(evicted)...)
		releaseSessionBuf(evicted)
	}
	for _, b := range expired {
		out = append(out, s.finalize(b)...)
		releaseSessionBuf(b)
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

// finalize runs the end-of-session structural checks on an owned buffer.
func (s *StreamDetector) finalize(buf *sessionBuf) []Anomaly {
	scr := s.d.getScratch()
	defer s.d.putScratch(scr)
	return s.d.checkInstances(buf.id, buf.last, buf.msgs, scr)
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
	out := s.finalize(buf)
	releaseSessionBuf(buf)
	return s.stamp(out)
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
	perSession := make([][]Anomaly, len(bufs))
	par.ForEachIndex(len(bufs), func(i int) {
		perSession[i] = s.finalize(bufs[i])
		releaseSessionBuf(bufs[i])
	})
	for _, anomalies := range perSession {
		r.Anomalies = append(r.Anomalies, anomalies...)
	}
	// Stamp after the parallel finalize, in report order, so Flush
	// findings extend the stream's emission sequence monotonically.
	s.stamp(r.Anomalies)
	return r
}
