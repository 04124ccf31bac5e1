package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"intellog/internal/logging"
)

// TestFastWireRecordMatchesEncodingJSON is the codec's differential
// oracle: for every line the fast decoder accepts, its result must
// equal encoding/json's; for every record the fast appender emits, the
// bytes must decode identically through both decoders.
func TestFastWireRecordMatchesEncodingJSON(t *testing.T) {
	recs := []logging.Record{
		{},
		{
			Time: time.Date(2019, 3, 2, 9, 0, 0, 123456789, time.UTC), Level: logging.Info,
			Source: "BlockManager", Message: "Registering worker node_01",
			Framework: logging.Spark, SessionID: "container_01", TemplateID: "t7",
		},
		{
			Time:  time.Date(2026, 8, 5, 12, 30, 0, 0, time.FixedZone("", 3600)),
			Level: logging.Fatal, Message: "plain ascii with spaces and: punctuation?!",
		},
		{Level: -3, Message: "negative level"},
	}
	for i, rec := range recs {
		t.Run(fmt.Sprintf("roundtrip-%d", i), func(t *testing.T) {
			line, ok := appendWireRecord(nil, &rec)
			if !ok {
				t.Fatalf("fast appender declined plain record %+v", rec)
			}
			// The emitted line must be bytes encoding/json also produces.
			want, err := json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if string(line) != string(want)+"\n" {
				t.Fatalf("fast line %q, encoding/json %q", line, want)
			}
			var std WireRecord
			fast, ok := fastWire(line[:len(line)-1])
			if !ok {
				t.Fatalf("fast decoder declined its own output %q", line)
			}
			if err := json.Unmarshal(line[:len(line)-1], &std); err != nil {
				t.Fatal(err)
			}
			if !fast.Time.Equal(std.Time) {
				t.Errorf("Time: fast %v, std %v", fast.Time, std.Time)
			}
			fast.Time, std.Time = time.Time{}, time.Time{}
			if !reflect.DeepEqual(fast, std) {
				t.Errorf("fast %+v, std %+v", fast, std)
			}
		})
	}
}

// TestFastWireRecordFallbacks pins the inputs the fast path must
// decline — every one of them either needs encoding/json semantics
// (escapes, unicode, case-insensitive keys) or is malformed (and
// falling back routes it to encoding/json's proper error).
func TestFastWireRecordFallbacks(t *testing.T) {
	appendCases := []logging.Record{
		{Message: `quote " inside`},
		{Message: "back\\slash"},
		{Message: "control\x07char"},
		{Message: "non-ascii é"},
		{Source: "tab\there"},
		{Time: time.Date(12026, 1, 1, 0, 0, 0, 0, time.UTC)},
	}
	for _, rec := range appendCases {
		if out, ok := appendWireRecord([]byte("prefix"), &rec); ok {
			t.Errorf("appender accepted %+v", rec)
		} else if string(out) != "prefix" {
			t.Errorf("declined append did not restore buf: %q", out)
		}
	}

	decodeCases := []string{
		``,
		`[]`,
		`{"Message":"a"`,
		`{"Message":"a"} trailing`,
		`{"Message":"with \"escape\""}`,
		`{"Message":"é"}`,
		`{"message":"lowercase key needs case folding"}`,
		`{"Unknown":"field"}`,
		`{"Level":"INFO"}`,
		`{"Level":1.5}`,
		`{"Level":12345678901}`,
		`{"Time":"not a time"}`,
		`{"Message":"a",}`,
		`{"Message":1}`,
	}
	for _, raw := range decodeCases {
		if _, ok := fastWire([]byte(raw)); ok {
			t.Errorf("fast decoder accepted %q", raw)
		}
	}

	// The lines it declines must still work end to end via the fallback:
	// simulate the handler's retry.
	raw := []byte(`{"message":"lowercase key","SessionID":"s"}`)
	if _, ok := fastWire(raw); ok {
		t.Fatal("expected fallback")
	}
	var wr WireRecord
	if err := json.Unmarshal(raw, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Message != "lowercase key" || wr.SessionID != "s" {
		t.Errorf("fallback decode = %+v", wr)
	}
}

// fastWire runs the fast decoder and plain-copies its views into the
// WireRecord encoding/json would produce.
func fastWire(raw []byte) (WireRecord, bool) {
	var wv wireView
	if !fastWireRecord(raw, &wv) {
		return WireRecord{}, false
	}
	return WireRecord{Line: string(wv.Line), Record: wv.Record()}, true
}
