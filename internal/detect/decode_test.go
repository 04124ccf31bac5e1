package detect

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// encodeRecords is a batch body as the ingest edge admits it.
func encodeRecords(recs []logging.Record) []byte {
	var body []byte
	for i := range recs {
		body = wal.AppendRecord(body, &recs[i])
	}
	return body
}

// decodeRecs is a stream of records covering every decode edge: UTC and
// fixed-zone times (two offsets, interleaved, so the decoder's zone memo
// is rebuilt), the zero time, empty small fields, matched, ignore-listed
// and unexpected renderings.
func decodeRecs() []logging.Record {
	renderings := []string{
		"Registering worker node_07", "Registered worker node_07",
		"bufstart=11 bufend=22", "Totally novel failure on host8:1234",
	}
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	zones := []*time.Location{time.UTC, time.FixedZone("", 3600), time.FixedZone("", -5*3600)}
	var recs []logging.Record
	for i := 0; i < 300; i++ {
		rec := streamRec(fmt.Sprintf("c%d", i%5), renderings[i%len(renderings)], t0.Add(time.Duration(i)*time.Second).In(zones[i%len(zones)]))
		rec.Source = fmt.Sprintf("src%d", i%3)
		rec.Framework = logging.Spark
		if i%11 == 0 {
			rec.Time = time.Time{}
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestConsumeEncodedMatchesConsumeBatch: a batch decoded and resolved
// by the serving worker's path yields exactly the findings ConsumeBatch
// yields for the same records plain-decoded, batch after batch, and the
// decoded records equal the plain decode field for field.
func TestConsumeEncodedMatchesConsumeBatch(t *testing.T) {
	recs := decodeRecs()
	plain := NewStream(fixture(t), StreamConfig{IdleTimeout: time.Minute})
	served := NewStream(fixture(t), StreamConfig{IdleTimeout: time.Minute})
	var dec Decoder
	for lo := 0; lo < len(recs); lo += 64 {
		body := encodeRecords(recs[lo:min(lo+64, len(recs))])
		var want []logging.Record
		for p := body; len(p) > 0; {
			rec, rest, err := wal.DecodeRecord(p)
			if err != nil {
				t.Fatal(err)
			}
			want, p = append(want, rec), rest
		}
		wantAnoms := plain.ConsumeBatch(want, 2)
		got, err := served.ConsumeEncoded(&dec, len(want), body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantAnoms) {
			t.Fatalf("batch at %d: ConsumeEncoded %+v, ConsumeBatch %+v", lo, got, wantAnoms)
		}
		for i := range want {
			g, w := dec.recs[i], want[i]
			_, goff := g.Time.Zone()
			_, woff := w.Time.Zone()
			if !g.Time.Equal(w.Time) || goff != woff || g.Time.IsZero() != w.Time.IsZero() {
				t.Fatalf("record %d time: decoder %v, plain %v", lo+i, g.Time, w.Time)
			}
			g.Time, w.Time = time.Time{}, time.Time{}
			if g != w {
				t.Fatalf("record %d: decoder %+v, plain %+v", lo+i, g, w)
			}
		}
	}
	if g, w := served.Flush(), plain.Flush(); !reflect.DeepEqual(g, w) {
		t.Fatalf("flush: ConsumeEncoded stream %+v, ConsumeBatch stream %+v", g, w)
	}
}

// TestConsumeEncodedRejectsMalformed: a body that does not hold exactly
// the stated records is an error, not a panic or a partial apply.
func TestConsumeEncodedRejectsMalformed(t *testing.T) {
	body := encodeRecords(decodeRecs()[:3])
	s := NewStream(fixture(t), StreamConfig{})
	var dec Decoder
	for _, tc := range []struct {
		count int
		body  []byte
	}{
		{4, body}, {2, body}, {3, body[:len(body)-1]}, {1 << 30, body}, {-1, body},
	} {
		if _, err := s.ConsumeEncoded(&dec, tc.count, tc.body); err == nil {
			t.Errorf("count %d over %d bytes: no error", tc.count, len(tc.body))
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("a malformed batch opened %d sessions", s.Pending())
	}
}

// TestConsumeEncodedAllHitAllocs: once every rendering of a batch is in
// the lookup cache and its sessions are open, the worker decodes,
// probes and applies it without allocating — no string is built for a
// message (a hit takes the cache's canonical one) or for a small field
// (the interner holds them), and no resolve pool is started. The session
// message cap holds the open sessions' buffers at a fixed size, so their
// growth does not count against the batch.
func TestConsumeEncodedAllHitAllocs(t *testing.T) {
	var recs []logging.Record
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC).In(time.FixedZone("", 7200))
	for i := 0; i < 512; i++ {
		msg := "Registering worker node_07"
		if i%2 == 1 {
			msg = "Registered worker node_07"
		}
		recs = append(recs, streamRec(fmt.Sprintf("c%d", i%8), msg, t0))
	}
	body := encodeRecords(recs)
	s := NewStream(fixture(t), StreamConfig{MaxSessionMsgs: 64})
	var dec Decoder
	for i := 0; i < 2; i++ { // fill the caches, then each session's cap
		if _, err := s.ConsumeEncoded(&dec, len(recs), body); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if as, err := s.ConsumeEncoded(&dec, len(recs), body); err != nil || len(as) != 0 {
			t.Fatalf("warm all-hit batch: %d anomalies, err %v", len(as), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm all-hit 512-record batch allocates %.1f objects, want 0", allocs)
	}
}

// TestInternerBounded pins the interner's memory contract: feed it far
// more distinct strings than its cap and the table must reset rather
// than grow, while every returned string still equals its input.
func TestInternerBounded(t *testing.T) {
	var in interner
	for i := 0; i < 3*internCap; i++ {
		s := fmt.Sprintf("session-%d", i)
		if got := in.get([]byte(s)); got != s {
			t.Fatalf("get(%q) = %q", s, got)
		}
		if len(in.m) > internCap {
			t.Fatalf("intern table grew to %d entries (cap %d)", len(in.m), internCap)
		}
	}
	// Repeats still dedup after the resets.
	a := in.get([]byte("stable"))
	b := in.get([]byte("stable"))
	if a != b {
		t.Fatalf("repeat lookup diverged: %q vs %q", a, b)
	}
}
