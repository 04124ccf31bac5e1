package detect

import (
	"reflect"
	"testing"
	"time"

	"intellog/internal/extract"
)

// TestConsumeMatchedRecordAllocs: the apply stage takes the record by
// value and keeps it only for an unexpected-message anomaly, so consuming
// a memoized matched record into a live session allocates nothing beyond
// the session's amortised slice growth — with and without idle expiry.
func TestConsumeMatchedRecordAllocs(t *testing.T) {
	for _, cfg := range []StreamConfig{{}, {IdleTimeout: 5 * time.Minute}} {
		s := NewStream(fixture(t), cfg)
		rec := streamRec("c1", "Registering worker node_07", time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC))
		s.Consume(rec) // memoizes the rendering and opens the session
		allocs := testing.AllocsPerRun(1000, func() {
			rec.Time = rec.Time.Add(time.Millisecond)
			if got := s.Consume(rec); len(got) != 0 {
				t.Fatalf("matched record reported %+v", got)
			}
		})
		if allocs != 0 {
			t.Errorf("idle %v: consuming a matched record allocates %.1f objects, want 0", cfg.IdleTimeout, allocs)
		}
	}
}

// TestUnexpectedOnMemoHitAllocs: an unexpected-message anomaly of a
// memoized rendering costs the kept record and one Message copy, which
// carries the record's time, session and text and shares the memo's
// bound extraction maps.
func TestUnexpectedOnMemoHitAllocs(t *testing.T) {
	d := fixture(t)
	s := NewStream(d, StreamConfig{})
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	rec := streamRec("c1", "Totally novel failure on host8:1234 for attempt_01", t0)
	s.Consume(rec) // publishes the memo
	key, aux, hit := d.Cache.GetAux(rec.Message)
	if !hit || key != nil {
		t.Fatalf("rendering not memoized as unmatched (hit %v, key %v)", hit, key)
	}
	cl := aux.(*extract.CachedLookup)
	memo := cl.Adhoc
	out := make([]Anomaly, 0, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Time = rec.Time.Add(time.Millisecond)
		out = s.consumeResolved(out[:0], rec, nil, cl)
	})
	if allocs > 2 {
		t.Errorf("an unexpected anomaly on a memo hit allocates %.1f objects, want at most 2", allocs)
	}
	if len(out) != 1 || out[0].Kind != UnexpectedMessage {
		t.Fatalf("got %+v, want one unexpected-message anomaly", out)
	}
	m := out[0].Extracted
	if m == memo || !m.Time.Equal(rec.Time) || m.Session != "c1" || m.Raw != rec.Message || *out[0].Record != rec {
		t.Fatalf("anomaly does not carry its own record, time, session and text: %+v", m)
	}
	shared := 0
	for _, pair := range [][2]map[string][]string{
		{m.Identifiers, memo.Identifiers}, {m.Values, memo.Values}, {m.Localities, memo.Localities},
	} {
		if reflect.ValueOf(pair[0]).UnsafePointer() != reflect.ValueOf(pair[1]).UnsafePointer() {
			t.Errorf("anomaly map %v is a copy of the memo's %v, want it shared", pair[0], pair[1])
		}
		if pair[0] != nil {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the rendering bound no field maps; pick one with identifiers or localities")
	}
}
