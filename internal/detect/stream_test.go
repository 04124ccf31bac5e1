package detect

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/spell"
)

func streamRec(session, msg string, at time.Time) logging.Record {
	return logging.Record{SessionID: session, Message: msg, Time: at, Level: logging.Info}
}

func TestStreamImmediateUnexpected(t *testing.T) {
	s := NewStream(fixture(t), StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	if got := s.Consume(streamRec("c1", "Registering worker node_07", t0)); len(got) != 0 {
		t.Fatalf("normal record flagged: %+v", got)
	}
	got := s.Consume(streamRec("c1", "Totally novel failure on host8:1234", t0.Add(time.Second)))
	if len(got) != 1 || got[0].Kind != UnexpectedMessage {
		t.Fatalf("unexpected message not reported immediately: %+v", got)
	}
}

func TestStreamCloseSessionStructuralChecks(t *testing.T) {
	s := NewStream(fixture(t), StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	s.Consume(streamRec("c1", "Registering worker node_07", t0))
	// Session truncated: Registered never arrives.
	got := s.CloseSession("c1")
	found := false
	for _, a := range got {
		if a.Kind == MissingCriticalKeys {
			found = true
		}
	}
	if !found {
		t.Errorf("missing critical key not found at close: %+v", got)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after close", s.Pending())
	}
}

func TestStreamIdleTimeoutFinalizes(t *testing.T) {
	s := NewStream(fixture(t), StreamConfig{IdleTimeout: time.Minute})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	s.Consume(streamRec("old", "Registering worker node_07", t0))
	// A much later record on another session idles out "old".
	got := s.Consume(streamRec("new", "Registering worker node_08", t0.Add(5*time.Minute)))
	foundMissing := false
	for _, a := range got {
		if a.Kind == MissingCriticalKeys && a.Session == "old" {
			foundMissing = true
		}
	}
	if !foundMissing {
		t.Errorf("idle session not finalized: %+v", got)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (only 'new')", s.Pending())
	}
}

func TestStreamFlushMatchesBatch(t *testing.T) {
	d := fixture(t)
	lines := []string{"Registering worker node_07", "Registered worker node_07"}
	// Batch detection.
	batch := d.DetectSession(session(lines...))
	// Stream detection of the same session.
	s := NewStream(d, StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	for i, l := range lines {
		s.Consume(streamRec("test", l, t0.Add(time.Duration(i)*time.Second)))
	}
	stream := s.Flush()
	if len(batch) != len(stream.Anomalies) {
		t.Errorf("batch %d anomalies vs stream %d", len(batch), len(stream.Anomalies))
	}
}

func TestStreamCloseUnknownSession(t *testing.T) {
	s := NewStream(fixture(t), StreamConfig{})
	if got := s.CloseSession("nope"); got != nil {
		t.Errorf("closing unknown session returned %+v", got)
	}
}

// TestStreamNoSelfExpiry is the regression test for the self-expiry bug:
// a gap just over IdleTimeout between two records of the SAME session
// must not finalize the session on its own second record — the arrival
// proves the session alive. The buggy code split the session in two and
// reported spurious missing-critical-keys findings.
func TestStreamNoSelfExpiry(t *testing.T) {
	s := NewStream(fixture(t), StreamConfig{IdleTimeout: time.Minute})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	if got := s.Consume(streamRec("c1", "Registering worker node_07", t0)); len(got) != 0 {
		t.Fatalf("first record flagged: %+v", got)
	}
	// 61s later: just over the 60s idle timeout.
	if got := s.Consume(streamRec("c1", "Registered worker node_07", t0.Add(61*time.Second))); len(got) != 0 {
		t.Fatalf("second record idled out its own session: %+v", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (session split)", s.Pending())
	}
	if rep := s.Flush(); len(rep.Anomalies) != 0 {
		t.Fatalf("complete session flagged at flush: %+v", rep.Anomalies)
	}
}

// parityCorpus interleaves three sessions out of order: a clean one, a
// truncated one, and one that only ever produces unexpected messages.
func parityCorpus() []logging.Record {
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	return []logging.Record{
		// "b" appears first in the stream but its first record is LATER
		// than a's — the ordering-contract case.
		streamRec("b", "Registering worker node_08", t0.Add(5*time.Second)),
		streamRec("a", "Registering worker node_07", t0),
		streamRec("c", "Totally novel failure on host8:1234", t0.Add(2*time.Second)),
		streamRec("a", "Registered worker node_07", t0.Add(6*time.Second)),
		streamRec("c", "Totally novel failure on host8:1234", t0.Add(7*time.Second)),
		streamRec("b", "bufstart=11 bufend=22", t0.Add(8*time.Second)),
	}
}

// normalizeAnomalies renders anomalies as sorted JSON lines so reports
// can be compared independent of emission order.
func normalizeAnomalies(t *testing.T, anomalies []Anomaly) []string {
	t.Helper()
	out := make([]string, len(anomalies))
	for i, a := range anomalies {
		raw, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal anomaly: %v", err)
		}
		out[i] = string(raw)
	}
	sort.Strings(out)
	return out
}

// assertStreamMatchesBatch requires Detector.DetectParallel and
// StreamDetector+Flush to yield identical reports on the same records:
// same session count, same findings (compared as normalized JSON).
func assertStreamMatchesBatch(t *testing.T, d *Detector, recs []logging.Record) {
	t.Helper()
	batch := d.DetectParallel(logging.GroupSessions(recs), 0)
	s := NewStream(d, StreamConfig{})
	var streamed []Anomaly
	for _, r := range recs {
		streamed = append(streamed, s.Consume(r)...)
	}
	rep := s.Flush()
	streamed = append(streamed, rep.Anomalies...)

	if rep.Sessions != batch.Sessions {
		t.Errorf("stream saw %d sessions, batch %d", rep.Sessions, batch.Sessions)
	}
	got := normalizeAnomalies(t, streamed)
	want := normalizeAnomalies(t, batch.Anomalies)
	if len(got) != len(want) {
		t.Fatalf("stream %d findings, batch %d:\nstream: %v\nbatch: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("finding %d differs:\nstream: %s\nbatch:  %s", i, got[i], want[i])
		}
	}
}

// TestStreamBatchParity covers the unmatched-only session and the
// out-of-order interleaving of parityCorpus.
func TestStreamBatchParity(t *testing.T) {
	assertStreamMatchesBatch(t, fixture(t), parityCorpus())
}

// TestStreamUnexpectedCarriesFramework covers the bare-session bug: the
// unexpected-message path must build the session from the record, not an
// ID-only stub.
func TestStreamUnexpectedCarriesFramework(t *testing.T) {
	s := NewStream(fixture(t), StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	rec := streamRec("c1", "Totally novel failure on host8:1234", t0)
	rec.Framework = logging.Spark
	got := s.Consume(rec)
	if len(got) != 1 || got[0].Kind != UnexpectedMessage {
		t.Fatalf("got %+v, want one unexpected-message", got)
	}
	if got[0].Record.Framework != logging.Spark {
		t.Errorf("anomaly record lost framework: %+v", got[0].Record)
	}
}

// TestStreamMaxSessionMsgsOverflow proves graceful degradation: past the
// per-session cap, messages are dropped with exactly one Overflow finding
// and the buffered state stays bounded.
func TestStreamMaxSessionMsgsOverflow(t *testing.T) {
	d := fixture(t)
	s := NewStream(d, StreamConfig{MaxSessionMsgs: 1})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	if got := s.Consume(streamRec("c1", "Registering worker node_07", t0)); len(got) != 0 {
		t.Fatalf("first buffered record flagged: %+v", got)
	}
	got := s.Consume(streamRec("c1", "Registered worker node_07", t0.Add(time.Second)))
	if len(got) != 1 || got[0].Kind != Overflow {
		t.Fatalf("cap breach not reported as overflow: %+v", got)
	}
	// A third matched record must NOT re-announce the overflow.
	if got := s.Consume(streamRec("c1", "Registered worker node_07", t0.Add(2*time.Second))); len(got) != 0 {
		t.Fatalf("overflow re-announced: %+v", got)
	}
	st := s.State()
	if len(st.Sessions) != 1 || len(st.Sessions[0].Records) != 1 {
		t.Fatalf("buffered state not bounded: %+v", st.Sessions)
	}
	if !st.Sessions[0].Overflowed || st.Sessions[0].Dropped != 2 {
		t.Errorf("overflow state = %+v, want overflowed with 2 dropped", st.Sessions[0])
	}
}

// TestStreamMaxSessionsEviction proves the in-flight cap is the exact
// global bound: MaxSessions sessions fit with no finding, and one more
// force-closes exactly the session with the oldest last-record time (not
// the first to arrive) with an Overflow plus its structural findings.
func TestStreamMaxSessionsEviction(t *testing.T) {
	d := fixture(t)
	const max = 64
	s := NewStream(d, StreamConfig{MaxSessions: max})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	for i := 0; i < max; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if got := s.Consume(streamRec(fmt.Sprintf("s%02d", i), "Registering worker node_07", at)); len(got) != 0 {
			t.Fatalf("session %d of %d flagged below the cap: %+v", i+1, max, got)
		}
	}
	// Touch the first arrival so s01 now holds the oldest last-record time.
	if got := s.Consume(streamRec("s00", "bufstart=11 bufend=22", t0.Add(max*time.Second))); len(got) != 0 {
		t.Fatalf("touching an open session flagged: %+v", got)
	}
	if s.Pending() != max {
		t.Fatalf("Pending = %d, want %d", s.Pending(), max)
	}
	got := s.Consume(streamRec("new", "Registering worker node_09", t0.Add((max+1)*time.Second)))
	overflow, missing := 0, false
	for _, a := range got {
		if a.Kind == Overflow {
			overflow++
		}
		if a.Session != "s01" {
			t.Errorf("finding for %q, want only the longest-idle s01: %+v", a.Session, a)
		}
		if a.Kind == MissingCriticalKeys {
			missing = true
		}
	}
	if overflow != 1 || !missing {
		t.Fatalf("eviction findings (overflow=%d structural=%v), want one overflow plus structural: %+v", overflow, missing, got)
	}
	if s.Pending() != max {
		t.Errorf("Pending = %d, want %d (cap)", s.Pending(), max)
	}
}

// TestStreamIdleExpiryAcrossManySessions exercises the heap: dozens of
// sessions with staggered last-record times, expired in waves as the
// stream clock advances.
func TestStreamIdleExpiryAcrossManySessions(t *testing.T) {
	d := fixture(t)
	s := NewStream(d, StreamConfig{IdleTimeout: time.Minute})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		s.Consume(streamRec(fmt.Sprintf("s%02d", i), "Registering worker node_07", t0.Add(time.Duration(i)*time.Second)))
	}
	if s.Pending() != 30 {
		t.Fatalf("Pending = %d, want 30", s.Pending())
	}
	// A record 10 minutes later idles out all 30 earlier sessions.
	got := s.Consume(streamRec("late", "Registering worker node_08", t0.Add(10*time.Minute)))
	expired := map[string]bool{}
	for _, a := range got {
		if a.Kind == MissingCriticalKeys {
			expired[a.Session] = true
		}
	}
	if len(expired) != 30 {
		t.Errorf("expired %d sessions, want 30", len(expired))
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

// TestStreamCheckpointRestoreParity kills the detector mid-corpus and
// restores it from its State snapshot; the combined findings must be
// byte-identical to an uninterrupted run.
func TestStreamCheckpointRestoreParity(t *testing.T) {
	d := fixture(t)
	cfg := StreamConfig{IdleTimeout: time.Minute, MaxSessionMsgs: 8}
	recs := parityCorpus()

	full := NewStream(d, cfg)
	var uninterrupted []Anomaly
	for _, r := range recs {
		uninterrupted = append(uninterrupted, full.Consume(r)...)
	}
	fullRep := full.Flush()
	uninterrupted = append(uninterrupted, fullRep.Anomalies...)

	cut := len(recs) / 2
	first := NewStream(d, cfg)
	var combined []Anomaly
	for _, r := range recs[:cut] {
		combined = append(combined, first.Consume(r)...)
	}
	st := first.State()
	// Round-trip the state through JSON like a real checkpoint file.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var restored StreamState
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	second, err := RestoreStreamDetector(d, cfg, &restored)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if second.Pending() != first.Pending() {
		t.Fatalf("restored Pending = %d, want %d", second.Pending(), first.Pending())
	}
	for _, r := range recs[cut:] {
		combined = append(combined, second.Consume(r)...)
	}
	rep := second.Flush()
	combined = append(combined, rep.Anomalies...)

	if rep.Sessions != fullRep.Sessions {
		t.Errorf("restored run saw %d sessions, uninterrupted %d", rep.Sessions, fullRep.Sessions)
	}
	got, err := json.Marshal(combined)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(uninterrupted)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("restored report differs from uninterrupted run:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestStreamRestoreRejectsModelMismatch: a checkpoint whose buffered
// records no longer bind under the model must fail loudly, not resume
// with silently different state.
func TestStreamRestoreRejectsModelMismatch(t *testing.T) {
	d := fixture(t)
	st := &StreamState{
		Seen: 1, NextSeq: 1,
		Sessions: []SessionState{{
			ID: "c1", StartSeq: 1,
			Records: []StampedMessage{{Message: "Never trained rendering zzz"}},
		}},
	}
	if _, err := RestoreStreamDetector(d, StreamConfig{}, st); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}

// TestStreamConcurrentConsume drives many sessions from parallel
// producers (records of one session stay on one goroutine, preserving
// per-session order) with idle expiry and caps active; under -race this
// proves the locking discipline. The cap evicts by event time, so a
// descheduled producer's live session can be force-closed and re-opened
// by its next record: each re-open is paid for by one Overflow finding,
// which bounds the session count under any schedule — and makes it exact
// when no session cap is set.
func TestStreamConcurrentConsume(t *testing.T) {
	d := fixture(t)
	const producers, perProducer = 8, 40
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	for _, limit := range []int{64, 0} {
		s := NewStream(d, StreamConfig{IdleTimeout: time.Minute, MaxSessions: limit, MaxSessionMsgs: 16})
		var forced atomic.Int64
		check := func(as []Anomaly) {
			for _, a := range as {
				if a.Kind == Overflow {
					forced.Add(1)
				}
			}
			if p := s.Pending(); limit > 0 && p > limit {
				t.Errorf("Pending = %d exceeds MaxSessions %d", p, limit)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					id := fmt.Sprintf("w%d-s%d", w, i)
					at := t0.Add(time.Duration(i) * time.Second)
					check(s.Consume(streamRec(id, "Registering worker node_07", at)))
					check(s.Consume(streamRec(id, "Totally novel failure on host8:1234", at.Add(time.Millisecond))))
					check(s.Consume(streamRec(id, "Registered worker node_07", at.Add(2*time.Millisecond))))
					if i%7 == 0 {
						check(s.CloseSession(id))
					}
				}
			}(w)
		}
		wg.Wait()
		rep := s.Flush()
		opened, n := producers*perProducer, int(forced.Load())
		if rep.Sessions < opened || rep.Sessions > opened+n {
			t.Errorf("MaxSessions %d: Sessions = %d, want %d..%d (%d forced closes)", limit, rep.Sessions, opened, opened+n, n)
		}
		if (n > 0) != (limit > 0) {
			t.Errorf("MaxSessions %d over %d sessions: %d forced closes", limit, opened, n)
		}
		if s.Pending() != 0 {
			t.Errorf("Pending = %d after flush", s.Pending())
		}
	}
}

// TestStreamFaultInjectedCorpus runs a heavily perturbed corpus
// (truncation, corruption, duplication, reordering, mid-session cuts)
// through a capped detector: it must complete without panicking, keep
// memory bounded by the caps, and surface overflow explicitly.
func TestStreamFaultInjectedCorpus(t *testing.T) {
	d := fixture(t)
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	var recs []logging.Record
	for sess := 0; sess < 12; sess++ {
		id := fmt.Sprintf("f%02d", sess)
		base := t0.Add(time.Duration(sess) * 10 * time.Second)
		for rep := 0; rep < 6; rep++ {
			at := base.Add(time.Duration(rep) * time.Second)
			recs = append(recs,
				streamRec(id, "Registering worker node_07", at),
				streamRec(id, "Registered worker node_07", at.Add(500*time.Millisecond)))
		}
	}
	inj := sim.NewFaultInjector(7)
	inj.TruncateProb = 0.2
	inj.CorruptProb = 0.2
	inj.DuplicateProb = 0.2
	inj.ReorderWindow = 5
	inj.CutProb = 0.5
	perturbed := inj.Perturb(recs)

	cfg := StreamConfig{IdleTimeout: 30 * time.Second, MaxSessions: 4, MaxSessionMsgs: 3}
	overflow := 0
	for _, a := range consumeCapped(t, d, cfg, perturbed) {
		if a.Kind == Overflow {
			overflow++
		}
	}
	if overflow == 0 {
		t.Error("capped run over a fault-injected corpus surfaced no overflow findings")
	}
}

// consumeCapped streams recs through a detector with both caps set,
// requires each cap to hold at every step, and returns every finding
// including the flush report's.
func consumeCapped(t *testing.T, d *Detector, cfg StreamConfig, recs []logging.Record) []Anomaly {
	t.Helper()
	s := NewStream(d, cfg)
	var all []Anomaly
	for _, r := range recs {
		all = append(all, s.Consume(r)...)
		if p := s.Pending(); p > cfg.MaxSessions {
			t.Fatalf("Pending = %d exceeds MaxSessions %d", p, cfg.MaxSessions)
		}
		for _, ss := range s.State().Sessions {
			if len(ss.Records) > cfg.MaxSessionMsgs {
				t.Fatalf("session %q buffered %d messages, cap %d", ss.ID, len(ss.Records), cfg.MaxSessionMsgs)
			}
		}
	}
	return append(all, s.Flush().Anomalies...)
}

// TestStreamNothingGrowsWithDistinctValues streams 200k records whose
// identifier values never repeat, two to a session, each session closed
// as it completes. Afterwards nothing the detector keeps — its lookup
// cache, the pooled worker scratch and the Algorithm 2 assigner in it —
// may be sized by the values the stream carried: the caches hold at most
// their fixed bounds and the assigner is sized for a two-value run. (The
// assigner's fields are unexported in hwgraph; the test reads their
// capacities by name through reflect.)
func TestStreamNothingGrowsWithDistinctValues(t *testing.T) {
	const sessions = 100_000
	d := fixture(t)
	s := NewStream(d, StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("c%d", i)
		at := t0.Add(time.Duration(i) * time.Second)
		s.Consume(streamRec(id, fmt.Sprintf("Registering worker node_%d", i), at))
		s.Consume(streamRec(id, fmt.Sprintf("Registered worker node_%d", i), at))
		if got := s.CloseSession(id); len(got) != 0 {
			t.Fatalf("session %d: clean session flagged: %+v", i, got)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d with every session closed", s.Pending())
	}
	if n := d.Cache.Len(); n > spell.DefaultLookupCacheSize {
		t.Errorf("lookup cache holds %d renderings, bound %d", n, spell.DefaultLookupCacheSize)
	}
	scr := d.getScratch()
	defer d.putScratch(scr)
	if cap(scr.msgs) > 64 || cap(scr.seq) > 64 || cap(scr.order) > 64 || len(scr.buckets) > 64 {
		t.Errorf("scratch sized by the stream: msgs %d seq %d order %d buckets %d",
			cap(scr.msgs), cap(scr.seq), cap(scr.order), len(scr.buckets))
	}
	asn := reflect.ValueOf(&scr.asn).Elem()
	for _, name := range []string{"table", "vals", "byValue", "setIDs", "instances", "free"} {
		if c := asn.FieldByName(name).Cap(); c > 64 {
			t.Errorf("Assigner.%s has capacity %d after %d distinct values in two-value runs", name, c, 2*sessions)
		}
	}
}
