package detect

import (
	"fmt"
	"math"
	"sort"
	"time"

	"intellog/internal/logging"
)

// StreamState is a serializable snapshot of a StreamDetector's in-flight
// state. Together with the trained model (see core.SaveCheckpoint) it is
// everything a restarted process needs to resume mid-stream and produce
// the same final report as an uninterrupted run.
//
// Buffered Intel Messages are not serialized directly: they are a pure
// function of (raw text, time, session) under a fixed model, so the
// snapshot stores the raw text and timestamp of each buffered record and
// RestoreStreamDetector re-binds them through the model. That keeps the
// checkpoint format independent of the extraction internals.
type StreamState struct {
	// Latest is the newest record time the stream had seen.
	Latest time.Time `json:"latest"`
	// Seen is the number of sessions opened so far (Report.Sessions).
	Seen uint64 `json:"sessionsSeen"`
	// NextSeq continues the session arrival order across restarts.
	NextSeq uint64 `json:"nextSeq"`
	// AnomalySeq continues the anomaly emission order (Anomaly.Seq)
	// across restarts, so /v1/anomalies cursors held by clients stay
	// valid over a checkpoint/restore cycle. Absent in pre-existing
	// checkpoints, which restore with the sequence reset to zero.
	AnomalySeq uint64 `json:"anomalySeq,omitempty"`
	// Sessions are the in-flight sessions, in arrival order.
	Sessions []SessionState `json:"sessions,omitempty"`
	// Sticky is the raw-line sessionizer's stickiness state at the cut:
	// the session ID that lines without an extractable ID were being
	// attributed to (logging.SessionAssigner.Current). The detector
	// itself neither produces nor consumes it — callers that sessionize
	// raw lines stash it here before saving and SessionAssigner.Resume
	// it after restoring, so ID-less lines keep their attribution across
	// a restart. Empty in older checkpoints and for streams whose
	// records arrive already carrying session IDs.
	Sticky string `json:"sticky,omitempty"`
	// WALSeq is the write-ahead-log cursor this snapshot covers: every
	// logged record with seq ≤ WALSeq is reflected in the state, so a
	// boot-time replay feeds only the suffix past it. Like Sticky, the
	// detector itself neither produces nor consumes it — intellogd's
	// tenant layer stamps it at the checkpoint barrier and reconciles
	// against it on restore. Zero in older checkpoints and for servers
	// running without a WAL.
	WALSeq uint64 `json:"walSeq,omitempty"`
}

// SessionState is one in-flight session inside a StreamState.
type SessionState struct {
	ID        string            `json:"id"`
	Framework logging.Framework `json:"framework,omitempty"`
	First     time.Time         `json:"first"`
	Last      time.Time         `json:"last"`
	StartSeq  uint64            `json:"startSeq"`
	// Overflowed and Dropped carry the MaxSessionMsgs degradation state so
	// a restored session keeps dropping instead of re-announcing overflow.
	Overflowed bool `json:"overflowed,omitempty"`
	Dropped    int  `json:"dropped,omitempty"`
	// Records are the session's buffered (matched, natural-language)
	// records: exactly what re-binding needs, nothing more.
	Records []StampedMessage `json:"records,omitempty"`
}

// StampedMessage is one buffered record in a checkpoint.
type StampedMessage struct {
	Time    time.Time `json:"t"`
	Message string    `json:"m"`
}

// State snapshots the in-flight sessions atomically: a record consumed
// concurrently is either wholly in the snapshot or wholly absent from it.
// Producers should still be quiesced first if the snapshot must pair with
// a known position in the input stream.
func (s *StreamDetector) State() *StreamState {
	s.mu.Lock()
	st := &StreamState{
		Seen:       s.seen,
		NextSeq:    s.startSeq,
		AnomalySeq: s.anomSeq.Load(),
	}
	if s.latest != math.MinInt64 {
		st.Latest = time.Unix(0, s.latest).UTC()
	}
	for _, b := range s.sessions {
		ss := SessionState{
			ID: b.id, Framework: b.fw,
			First: b.first, Last: b.last, StartSeq: b.startSeq,
			Overflowed: b.overflowed, Dropped: b.dropped,
		}
		for i, m := range b.msgs {
			ss.Records = append(ss.Records, StampedMessage{Time: b.times[i], Message: m.Raw})
		}
		st.Sessions = append(st.Sessions, ss)
	}
	s.mu.Unlock()
	sort.Slice(st.Sessions, func(i, j int) bool {
		return st.Sessions[i].StartSeq < st.Sessions[j].StartSeq
	})
	return st
}

// RestoreStreamDetector rebuilds a streaming detector from a snapshot
// taken by State, replaying each buffered record through the (identically
// trained) model. It fails if a buffered record no longer binds to an
// Intel Key — the sign of a model/checkpoint mismatch.
func RestoreStreamDetector(d *Detector, cfg StreamConfig, st *StreamState) (*StreamDetector, error) {
	s := NewStream(d, cfg)
	if !st.Latest.IsZero() {
		s.latest = st.Latest.UnixNano()
	}
	s.seen = st.Seen
	s.startSeq = st.NextSeq
	s.anomSeq.Store(st.AnomalySeq)
	scr := d.getScratch()
	defer d.putScratch(scr)
	for i := range st.Sessions {
		ss := &st.Sessions[i]
		if _, dup := s.sessions[ss.ID]; dup {
			return nil, fmt.Errorf("checkpoint lists session %q twice", ss.ID)
		}
		buf := &sessionBuf{
			id: ss.ID, fw: ss.Framework,
			first: ss.First, last: ss.Last, startSeq: ss.StartSeq,
			overflowed: ss.Overflowed, dropped: ss.Dropped,
		}
		for _, rm := range ss.Records {
			rec := logging.Record{
				Time: rm.Time, Message: rm.Message,
				SessionID: ss.ID, Framework: ss.Framework,
			}
			key, cl := d.lookupRecord(&rec, scr)
			if key == nil || cl.Proto == nil {
				return nil, fmt.Errorf("checkpoint session %q: record %q does not bind under this model (checkpoint/model mismatch)", ss.ID, rm.Message)
			}
			buf.msgs = append(buf.msgs, cl.Proto)
			buf.times = append(buf.times, rm.Time)
		}
		s.sessions[ss.ID] = buf
		if s.trackExpiry() {
			s.heap.push(expiryEntry{at: buf.last.UnixNano(), id: buf.id})
		}
	}
	return s, nil
}
