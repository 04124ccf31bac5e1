package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"intellog/internal/batch"
	"intellog/internal/conformance"
	"intellog/internal/logging"
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
	seq, _, _, err := wal.ParseBatchHeader(body)
	if err != nil {
		t.Fatalf("ParseBatchHeader: %v", err)
	}
	recs := plainDecodeBatch(t, body)
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

// TestDecodeBatchRejectsMalformed: the edge refuses a malformed Batch
// body — it fails the frame, and the connection with it — before any
// record reaches a batch.
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
	s, pool := edgeServer(0), batch.NewPool(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, b, err := edgeFilterBatch(s, pool, logging.Spark, tc.body); err == nil {
				b.Release()
				t.Fatal("the edge accepted a malformed body")
			}
		})
	}
	if st := pool.Stats(); st.Outstanding != 0 {
		t.Fatalf("%d batches outstanding after refusals", st.Outstanding)
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

// FuzzWireFrame pins the decoder's safety contract and the edge's
// semantics: arbitrary bytes — truncated, oversized, corrupt-CRC, or
// structurally malformed — must produce an error, never a panic,
// over-read or runaway allocation; and for every Batch body the
// view-based edge must agree with the plain reference (decode, then
// validate, then fill the framework) on whether the frame fails, on the
// accepted, skipped and dead-lettered counts, and on the records its
// body decodes to. A filtered body fed back through the edge passes
// unchanged.
func FuzzWireFrame(f *testing.F) {
	f.Add(append([]byte(nil), wal.AppendFrame(nil, frameHello, appendHello(nil, "acme", logging.Spark))...))
	f.Add(wal.AppendFrame(nil, frameBatch, wal.AppendBatch(nil, 3, wireRecords())))
	f.Add(wal.AppendFrame(nil, frameAck, appendAck(nil, streamAck{Seq: 3, Status: ackQueueFull, RetryMs: 1000, Msg: "full"})))
	f.Add([]byte{4, 0, 0, 0, frameBatch})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	corrupt := wal.AppendFrame(nil, frameBatch, wal.AppendBatch(nil, 1, wireRecords()[:1]))
	corrupt[len(corrupt)-2] ^= 0x40
	f.Add(corrupt)
	clean := wireRecords()[:2]
	f.Add(wal.AppendFrame(nil, frameBatch, wal.AppendBatch(nil, 9, clean)))

	// wireRecords' 300-byte source is over this cap, so the seeds
	// exercise every rule: keep, fill, skip, and both dead letters.
	s, pool := edgeServer(256), batch.NewPool(0)
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
				wantSeq, want, werr := refFilterBatch(s, logging.Spark, body)
				seq, got, b, err := edgeFilterBatch(s, pool, logging.Spark, body)
				if (err == nil) != (werr == nil) {
					t.Fatalf("edge error %v, reference error %v", err, werr)
				}
				if err != nil {
					continue
				}
				if seq != wantSeq {
					t.Fatalf("edge seq %d, reference %d", seq, wantSeq)
				}
				assertSameEdge(t, got, want, b.N)
				again := append(wal.AppendBatchHeader(nil, seq, b.N), b.Body...)
				_, res, b2, err := edgeFilterBatch(s, pool, logging.Spark, again)
				if err != nil || res.skipped != 0 || len(res.dead) != 0 || !bytes.Equal(b2.Body, b.Body) {
					t.Fatalf("a filtered body did not pass the edge unchanged (err %v)", err)
				}
				b2.Release()
				b.Release()
			}
		}
	})
}

// plainDecodeBatch decodes a Batch body the plain way: the frame header
// by hand, then every record through wal.DecodeRecord's string copies.
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

// TestDecodeBatchMatchesWALDecode runs every conformance corpus through
// the ILS1 edge as 512-record frames, with every other record's
// framework blanked so the fill path runs beside the pass-through one,
// and requires the admitted body to decode to exactly the reference
// edge's records.
func TestDecodeBatchMatchesWALDecode(t *testing.T) {
	s, pool := edgeServer(0), batch.NewPool(0)
	for _, spec := range conformance.DefaultMatrix() {
		t.Run(spec.Name, func(t *testing.T) {
			recs := append([]logging.Record(nil), CorpusFor(spec)...)
			for i := 0; i < len(recs); i += 2 {
				recs[i].Framework = ""
			}
			for lo := 0; lo < len(recs); lo += 512 {
				body := wal.AppendBatch(nil, uint64(lo+1), recs[lo:min(lo+512, len(recs))])
				_, want, err := refFilterBatch(s, spec.Framework, body)
				if err != nil {
					t.Fatal(err)
				}
				_, got, b, err := edgeFilterBatch(s, pool, spec.Framework, body)
				if err != nil {
					t.Fatal(err)
				}
				assertSameEdge(t, got, want, b.N)
				b.Release()
			}
		})
	}
}
