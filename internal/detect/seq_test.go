package detect

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestAnomalySeqMonotonic pins the cursor contract of the streaming
// detector: every anomaly emitted — mid-stream via Consume, at explicit
// CloseSession, and at Flush — carries a strictly increasing, gapless
// sequence number, so a caller can page findings with "give me everything
// after seq N" and never miss or re-see one.
func TestAnomalySeqMonotonic(t *testing.T) {
	d := fixture(t)
	s := NewStream(d, StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)

	var got []Anomaly
	// Two unexpected messages in one session, one in another.
	got = append(got, s.Consume(streamRec("c1", "Totally novel failure alpha", t0))...)
	got = append(got, s.Consume(streamRec("c1", "Totally novel failure beta", t0.Add(time.Second)))...)
	got = append(got, s.Consume(streamRec("c2", "Totally novel failure gamma", t0.Add(2*time.Second)))...)
	got = append(got, s.CloseSession("c1")...)
	rep := s.Flush()
	got = append(got, rep.Anomalies...)

	if len(got) < 3 {
		t.Fatalf("corpus produced only %d findings, need ≥ 3 to exercise ordering", len(got))
	}
	for i, a := range got {
		if want := uint64(i + 1); a.Seq != want {
			t.Errorf("anomaly %d has seq %d, want %d (gapless, strictly increasing)", i, a.Seq, want)
		}
	}
	if s.AnomalySeq() != uint64(len(got)) {
		t.Errorf("AnomalySeq() = %d, want %d", s.AnomalySeq(), len(got))
	}
}

// TestAnomalySeqExcludedFromJSON: the conformance oracle canonicalizes
// reports by JSON-marshaling anomalies; the path-dependent Seq must never
// leak into that form or batch/stream parity would break byte-for-byte.
func TestAnomalySeqExcludedFromJSON(t *testing.T) {
	a := Anomaly{Seq: 42, Session: "c1", Kind: Overflow, Detail: "x"}
	b := Anomaly{Seq: 7, Session: "c1", Kind: Overflow, Detail: "x"}
	ja, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("Seq leaked into JSON:\n%s\n%s", ja, jb)
	}
}

// TestAnomalySeqUniqueUnderConcurrency: concurrent Consume calls may
// interleave their stamped ranges, but no two anomalies ever share a
// sequence number and the counter never runs backwards.
func TestAnomalySeqUniqueUnderConcurrency(t *testing.T) {
	d := fixture(t)
	s := NewStream(d, StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)

	const workers, perWorker = 8, 40
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := "c" + string(rune('A'+w))
				as := s.Consume(streamRec(id, "Totally novel failure zeta", t0.Add(time.Duration(i)*time.Millisecond)))
				mu.Lock()
				for _, a := range as {
					if a.Seq == 0 {
						t.Error("anomaly stamped with seq 0")
					}
					if seen[a.Seq] {
						t.Errorf("seq %d assigned twice", a.Seq)
					}
					seen[a.Seq] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != workers*perWorker {
		t.Fatalf("expected %d unexpected-message findings, got %d", workers*perWorker, len(seen))
	}
	if s.AnomalySeq() != uint64(len(seen)) {
		t.Errorf("AnomalySeq() = %d after %d findings", s.AnomalySeq(), len(seen))
	}
}

// TestAnomalySeqSurvivesCheckpoint: a restored detector continues the
// emission sequence where the checkpoint left off, so anomaly cursors
// held across a restart stay valid (no duplicate or reused numbers).
func TestAnomalySeqSurvivesCheckpoint(t *testing.T) {
	d := fixture(t)
	s := NewStream(d, StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)

	pre := s.Consume(streamRec("c1", "Totally novel failure alpha", t0))
	if len(pre) != 1 || pre[0].Seq != 1 {
		t.Fatalf("priming finding = %+v, want one anomaly with seq 1", pre)
	}
	st := s.State()
	if st.AnomalySeq != 1 {
		t.Fatalf("checkpoint AnomalySeq = %d, want 1", st.AnomalySeq)
	}

	restored, err := RestoreStreamDetector(fixture(t), StreamConfig{}, st)
	if err != nil {
		t.Fatal(err)
	}
	post := restored.Consume(streamRec("c2", "Totally novel failure beta", t0.Add(time.Second)))
	if len(post) != 1 || post[0].Seq != 2 {
		t.Fatalf("post-restore finding = %+v, want one anomaly with seq 2", post)
	}
}
