package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/logging"
	"intellog/internal/spell"
	"intellog/internal/wal"
)

// wireRecords is a record set that exercises every encoding edge the
// batch body has: zero time, UTC, odd fixed zones, empty fields,
// non-ASCII text, embedded newlines and invalid UTF-8.
func wireRecords() []logging.Record {
	return []logging.Record{
		{
			Time:      time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC),
			Level:     logging.Info,
			Source:    "BlockManager",
			Message:   "Registering block manager 10.0.0.7:39631",
			Framework: logging.Spark,
			SessionID: "container_0001_01_000001",
		},
		{
			Time:       time.Date(2026, 3, 1, 17, 30, 0, 0, time.FixedZone("", 5*3600+1800)),
			Level:      logging.Warn,
			Source:     "Fetcher",
			Message:    "multi\nline\nstack trace",
			Framework:  logging.MapReduce,
			SessionID:  "container_0001_01_000002",
			TemplateID: "t-17",
		},
		{
			// Zero time is a sentinel on the wire; everything else empty
			// except the message (admission requires one).
			Message: "naked message \xff\xfe not utf8 é",
		},
		{
			Time:    time.Unix(0, 1).UTC(),
			Level:   logging.Fatal,
			Source:  strings.Repeat("s", 300), // multi-byte uvarint length
			Message: "",
		},
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf []byte
	buf = wal.AppendFrame(buf, frameHello, appendHello(nil, "acme", logging.Spark))
	buf = wal.AppendFrame(buf, frameBatch, wal.AppendBatch(nil, 7, wireRecords()))
	buf = wal.AppendFrame(buf, frameAck, appendAck(nil, streamAck{Seq: 7, Status: ackAccepted, Accepted: 4}))

	r := bytes.NewReader(buf)
	var fbuf []byte

	typ, body, fbuf, err := wal.ReadFrame(r, fbuf, 0)
	if err != nil || typ != frameHello {
		t.Fatalf("hello frame: type=%d err=%v", typ, err)
	}
	tenant, fw, err := parseHello(body)
	if err != nil || tenant != "acme" || fw != logging.Spark {
		t.Fatalf("parseHello = (%q, %q, %v)", tenant, fw, err)
	}

	typ, body, fbuf, err = wal.ReadFrame(r, fbuf, 0)
	if err != nil || typ != frameBatch {
		t.Fatalf("batch frame: type=%d err=%v", typ, err)
	}
	seq, recs, err := decodeBatch(body, &batchResolver{intern: &wireIntern{}}, nil)
	if err != nil {
		t.Fatalf("decodeBatch: %v", err)
	}
	if seq != 7 {
		t.Fatalf("seq = %d, want 7", seq)
	}
	want := wireRecords()
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		// Times compare by wire fidelity (instant + zone offset), not by
		// zone identity: the decoder rebuilds zones as unnamed offsets.
		if !recs[i].Time.Equal(want[i].Time) {
			t.Fatalf("record %d time = %v, want %v", i, recs[i].Time, want[i].Time)
		}
		if g, w := recs[i].Time.Format(time.RFC3339Nano), want[i].Time.Format(time.RFC3339Nano); g != w {
			t.Fatalf("record %d rendered time = %q, want %q", i, g, w)
		}
		recs[i].Time, want[i].Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(recs[i], want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}

	typ, body, _, err = wal.ReadFrame(r, fbuf, 0)
	if err != nil || typ != frameAck {
		t.Fatalf("ack frame: type=%d err=%v", typ, err)
	}
	ack, err := parseAck(body)
	if err != nil {
		t.Fatalf("parseAck: %v", err)
	}
	if ack.Seq != 7 || ack.Status != ackAccepted || ack.Accepted != 4 {
		t.Fatalf("ack = %+v", ack)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after three frames", r.Len())
	}
}

func TestWireAckRoundTrip(t *testing.T) {
	in := streamAck{Seq: 42, Status: ackQueueFull, Accepted: 0, Skipped: 3,
		RetryMs: 1000, Msg: "ingest queue full"}
	out, err := parseAck(appendAck(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("ack round trip = %+v, want %+v", out, in)
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	valid := wal.AppendFrame(nil, frameAck, appendAck(nil, streamAck{Status: ackAccepted}))

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff // flip a CRC byte

	flipped := append([]byte(nil), valid...)
	flipped[5] ^= 0x01 // flip a body byte, keep the stale CRC

	undersized := []byte{4, 0, 0, 0, frameAck}

	oversized := make([]byte, 4)
	oversized[0] = 0xff
	oversized[1] = 0xff
	oversized[2] = 0xff
	oversized[3] = 0x7f

	cases := []struct {
		name string
		data []byte
		wire bool // must be a protocol error, not an I/O error
	}{
		{"empty", nil, false},
		{"truncated header", valid[:2], false},
		{"truncated payload", valid[:len(valid)-3], false},
		{"length below minimum", undersized, true},
		{"length above limit", oversized, true},
		{"corrupt crc", corrupt, true},
		{"corrupt body", flipped, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := wal.ReadFrame(bytes.NewReader(tc.data), nil, 1<<20)
			if err == nil {
				t.Fatal("readFrame accepted malformed input")
			}
			if tc.wire && !errors.Is(err, wal.ErrWire) {
				t.Fatalf("err = %v, want a wire protocol error", err)
			}
			if !tc.wire && errors.Is(err, wal.ErrWire) {
				t.Fatalf("err = %v, want a plain I/O error", err)
			}
		})
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	good := wal.AppendBatch(nil, 1, wireRecords())
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"bare seq", good[:1]},
		{"impossible count", append(wal.AppendBatch(nil, 1, nil)[:1], 0xff, 0xff, 0x03)},
		{"truncated record", good[:len(good)-2]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := decodeBatch(tc.body, nil, nil); err == nil {
				t.Fatal("decodeBatch accepted malformed body")
			}
		})
	}
}

func TestParseHelloRejectsMalformed(t *testing.T) {
	good := appendHello(nil, "acme", logging.Spark)
	bad := [][]byte{
		nil,
		{99}, // unknown version
		good[:2],
		append(append([]byte(nil), good...), 0), // trailing byte
	}
	for i, body := range bad {
		if _, _, err := parseHello(body); err == nil {
			t.Fatalf("case %d: parseHello accepted malformed body", i)
		}
	}
}

// TestWireInternBounded pins the interner's memory contract: feed it far
// more distinct strings than its cap and the table must reset rather
// than grow, while every returned string still equals its input.
func TestWireInternBounded(t *testing.T) {
	in := &wireIntern{}
	for i := 0; i < 3*wireInternCap; i++ {
		s := fmt.Sprintf("session-%d", i)
		if got := in.get([]byte(s)); got != s {
			t.Fatalf("get(%q) = %q", s, got)
		}
		if len(in.m) > wireInternCap {
			t.Fatalf("intern table grew to %d entries (cap %d)", len(in.m), wireInternCap)
		}
	}
	// Repeats still dedup after the resets.
	a := in.get([]byte("stable"))
	b := in.get([]byte("stable"))
	if a != b {
		t.Fatalf("repeat lookup diverged: %q vs %q", a, b)
	}
}

// FuzzWireFrame pins the decoder's safety contract: arbitrary bytes —
// truncated, oversized, corrupt-CRC, or structurally malformed — must
// produce an error, never a panic, over-read or runaway allocation. A
// batch body that does decode must re-encode and re-decode to the same
// records (idempotence after the first decode).
func FuzzWireFrame(f *testing.F) {
	f.Add(append([]byte(nil), wal.AppendFrame(nil, frameHello, appendHello(nil, "acme", logging.Spark))...))
	f.Add(wal.AppendFrame(nil, frameBatch, wal.AppendBatch(nil, 3, wireRecords())))
	f.Add(wal.AppendFrame(nil, frameAck, appendAck(nil, streamAck{Seq: 3, Status: ackQueueFull, RetryMs: 1000, Msg: "full"})))
	f.Add([]byte{4, 0, 0, 0, frameBatch})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	corrupt := wal.AppendFrame(nil, frameBatch, wal.AppendBatch(nil, 1, wireRecords()[:1]))
	corrupt[len(corrupt)-2] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, body, _, err := wal.ReadFrame(r, nil, 1<<20)
			if err != nil {
				if err != io.EOF && !errors.Is(err, wal.ErrWire) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			switch typ {
			case frameHello:
				parseHello(body)
			case frameAck:
				parseAck(body)
			case frameBatch:
				seq, recs, err := decodeBatch(body, &batchResolver{intern: &wireIntern{}}, nil)
				if err != nil {
					continue
				}
				assertPlainDecodeAgrees(t, body, recs)
				again := wal.AppendBatch(nil, seq, recs)
				seq2, recs2, err := decodeBatch(again, &batchResolver{intern: &wireIntern{}}, nil)
				if err != nil {
					t.Fatalf("re-decode of re-encoded batch failed: %v", err)
				}
				if seq2 != seq || len(recs2) != len(recs) {
					t.Fatalf("re-decode changed shape: seq %d→%d, %d→%d records",
						seq, seq2, len(recs), len(recs2))
				}
				for i := range recs {
					if !recs[i].Time.Equal(recs2[i].Time) {
						t.Fatalf("record %d time drifted on re-encode", i)
					}
					recs[i].Time, recs2[i].Time = time.Time{}, time.Time{}
					if !reflect.DeepEqual(recs[i], recs2[i]) {
						t.Fatalf("record %d drifted on re-encode: %+v vs %+v", i, recs[i], recs2[i])
					}
				}
			}
		}
	})
}

// plainDecodeBatch decodes a Batch body the WAL-replay way: the frame
// header by hand, then every record through wal.DecodeRecord's plain
// string copies.
func plainDecodeBatch(t *testing.T, body []byte) []logging.Record {
	t.Helper()
	_, p, ok := wal.Uvarint(body)
	if !ok {
		t.Fatal("plain decode: bad seq")
	}
	count, p, ok := wal.Uvarint(p)
	if !ok {
		t.Fatal("plain decode: bad count")
	}
	var out []logging.Record
	for i := uint64(0); i < count; i++ {
		rec, rest, err := wal.DecodeRecord(p)
		if err != nil {
			t.Fatalf("plain decode: record %d: %v", i, err)
		}
		out = append(out, rec)
		p = rest
	}
	return out
}

// assertPlainDecodeAgrees checks decodeBatch's resolver-materialized
// records against wal.DecodeRecord's plain copies of the same body,
// field for field.
func assertPlainDecodeAgrees(t *testing.T, body []byte, got []logging.Record) {
	t.Helper()
	want := plainDecodeBatch(t, body)
	if len(got) != len(want) {
		t.Fatalf("decodeBatch gave %d records, wal.DecodeRecord %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		_, goff := g.Time.Zone()
		_, woff := w.Time.Zone()
		if !g.Time.Equal(w.Time) || goff != woff || g.Time.IsZero() != w.Time.IsZero() {
			t.Fatalf("record %d time: decodeBatch %v, wal.DecodeRecord %v", i, g.Time, w.Time)
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if g != w {
			t.Fatalf("record %d: decodeBatch %+v, wal.DecodeRecord %+v", i, g, w)
		}
	}
}

// TestDecodeBatchMatchesWALDecode runs every conformance corpus through
// the one record decoder both ways — the serving wire's interning,
// cache-resolving materialization and WAL replay's plain copies — and
// requires identical records. Half the corpus's messages are cached
// first, so both of the resolver's message branches are exercised.
func TestDecodeBatchMatchesWALDecode(t *testing.T) {
	for _, spec := range conformance.DefaultMatrix() {
		t.Run(spec.Name, func(t *testing.T) {
			recs := CorpusFor(spec)
			cache := spell.NewLookupCache(len(recs) + 1)
			for i := 0; i < len(recs); i += 2 {
				cache.AddAux(recs[i].Message, nil, nil)
			}
			br := &batchResolver{intern: &wireIntern{}, cache: cache}
			for lo := 0; lo < len(recs); lo += 512 {
				body := wal.AppendBatch(nil, uint64(lo+1), recs[lo:min(lo+512, len(recs))])
				_, got, err := decodeBatch(body, br, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertPlainDecodeAgrees(t, body, got)
			}
		})
	}
}
