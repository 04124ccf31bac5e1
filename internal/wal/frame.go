// Package wal is the durability layer under intellogd's ingest path: a
// segment-rotated, CRC-framed write-ahead log (Log) that makes a 202
// ack mean "this record survives a crash", and a dead-letter queue
// (DLQ) that quarantines records failing parse or size validation
// instead of poisoning their batch.
//
// The frame vocabulary here is the ILS1 envelope the binary ingest
// protocol already speaks (internal/server/wirebin.go calls these
// exported primitives and the record decoder directly), so one
// CRC/length/bounds discipline and one record layout cover the wire
// and the disk: a WAL segment is a sequence of ILS1 frames and a
// torn tail is detected exactly like a corrupt wire frame — by length
// bounds and CRC, never by trusting bytes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"intellog/internal/logging"
)

// MaxFrame bounds a frame a reader will accept regardless of
// configuration — the decode-side allocation cap.
const MaxFrame = 64 << 20

// ZeroTimeNano is the on-wire/on-disk sentinel for the zero time.Time,
// whose UnixNano is undefined (year 1 is outside the int64-nanosecond
// range).
const ZeroTimeNano = int64(-1 << 63)

// The instants AppendRecord can carry: UnixNano is defined only from
// math.MinInt64 to math.MaxInt64 nanoseconds, and the lowest of those is
// ZeroTimeNano, so a record there would decode as the zero time.
var (
	minRecordTime = time.Unix(0, ZeroTimeNano+1).UTC()
	maxRecordTime = time.Unix(0, math.MaxInt64).UTC()
)

// CheckTime reports, as an error naming t, a non-zero time AppendRecord
// cannot carry: outside 1677-09-21 to 2262-04-11 UnixNano wraps, so year
// 3000 would decode as 1830. The zero time is always valid.
func CheckTime(t time.Time) error {
	if t.IsZero() || (!t.Before(minRecordTime) && !t.After(maxRecordTime)) {
		return nil
	}
	return fmt.Errorf("record time %s is outside the encodable range %s to %s",
		t.Format(time.RFC3339Nano), minRecordTime.Format(time.RFC3339Nano), maxRecordTime.Format(time.RFC3339Nano))
}

// ErrWire marks protocol-level decode failures (distinct from I/O
// errors, which pass through unwrapped).
var ErrWire = errors.New("wire protocol error")

// Errf builds an ErrWire-wrapped decode error.
func Errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// AppendFrame wraps a finished body in the frame envelope:
//
//	u32  LE payload length n (= 1 type byte + body + 4 CRC bytes)
//	u8   frame type
//	...  body (n-5 bytes)
//	u32  LE CRC-32 (IEEE) over type byte + body
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	return appendFrame2(dst, typ, nil, body)
}

// appendFrame2 is AppendFrame for a body given in two parts, so a WAL
// entry's header and record bytes are copied once, into the frame.
func appendFrame2(dst []byte, typ byte, head, body []byte) []byte {
	n := 1 + len(head) + len(body) + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, typ)
	dst = append(dst, head...)
	dst = append(dst, body...)
	crc := crc32.ChecksumIEEE(dst[len(dst)-n+4:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// ReadFrame reads one frame, reusing buf (grown as needed) for the
// payload. The returned body aliases the buffer and is valid until the
// next call. max bounds the accepted frame length (≤ 0 means MaxFrame).
func ReadFrame(r io.Reader, buf []byte, max int) (typ byte, body, newBuf []byte, err error) {
	if max <= 0 || max > MaxFrame {
		max = MaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 5 {
		return 0, nil, buf, Errf("frame length %d below minimum", n)
	}
	if n > max {
		return 0, nil, buf, Errf("frame length %d exceeds limit %d", n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, n, n+n/2)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	want := binary.LittleEndian.Uint32(buf[n-4:])
	if got := crc32.ChecksumIEEE(buf[:n-4]); got != want {
		return 0, nil, buf, Errf("frame CRC mismatch (got %08x want %08x)", got, want)
	}
	return buf[0], buf[1 : n-4], buf, nil
}

// --- body primitives ---------------------------------------------------

// Uvarint decodes a uvarint, returning ok=false on malformed or
// truncated input.
func Uvarint(p []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	return v, p[n:], true
}

// Varint is Uvarint for signed values.
func Varint(p []byte) (v int64, rest []byte, ok bool) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, nil, false
	}
	return v, p[n:], true
}

// Bytes decodes a uvarint-length-prefixed byte string as a view into p.
func Bytes(p []byte) (s, rest []byte, ok bool) {
	l, p, ok := Uvarint(p)
	if !ok || l > uint64(len(p)) {
		return nil, nil, false
	}
	return p[:l], p[l:], true
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// --- record codec ------------------------------------------------------

// AppendRecord encodes one logging.Record in the ILS1 batch layout:
// fixed-width LE UnixNano + zone offset in seconds (ZeroTimeNano
// sentinel for the zero time), varint level, then uvarint-prefixed raw
// source/message/framework/session/template bytes. UnixNano plus offset
// round-trips everything RFC3339 can express (the JSON wire form's
// fidelity), for every time CheckTime accepts. The same bytes travel in
// wire Batch frames and WAL entries.
func AppendRecord(dst []byte, rec *logging.Record) []byte {
	nano := ZeroTimeNano
	off := 0
	if !rec.Time.IsZero() {
		nano = rec.Time.UnixNano()
		_, off = rec.Time.Zone()
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nano))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(off)))
	dst = binary.AppendVarint(dst, int64(rec.Level))
	dst = AppendString(dst, rec.Source)
	dst = AppendString(dst, rec.Message)
	dst = AppendString(dst, string(rec.Framework))
	dst = AppendString(dst, rec.SessionID)
	dst = AppendString(dst, rec.TemplateID)
	return dst
}

// AppendBatch encodes a record batch body: uvarint seq, uvarint record
// count, then each record in AppendRecord's layout. It is both the ILS1
// Batch frame body (seq numbers the frame) and the WAL entry body (seq
// is the first record's sequence number).
func AppendBatch(dst []byte, seq uint64, recs []logging.Record) []byte {
	dst = AppendBatchHeader(dst, seq, len(recs))
	for i := range recs {
		dst = AppendRecord(dst, &recs[i])
	}
	return dst
}

// AppendRecordView encodes a decoded view back into AppendRecord's
// layout, with framework in place of v.Framework when the view has
// none. It is AppendRecord for callers that hold byte views instead of
// strings (the ingest edge filling a record's framework, the NDJSON fast
// path encoding straight from its JSON literals).
func AppendRecordView(dst []byte, v *RecordView, framework []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Nano))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Offset))
	dst = binary.AppendVarint(dst, int64(v.Level))
	dst = appendBytes(dst, v.Source)
	dst = appendBytes(dst, v.Message)
	if len(v.Framework) > 0 {
		framework = v.Framework
	}
	dst = appendBytes(dst, framework)
	dst = appendBytes(dst, v.SessionID)
	return appendBytes(dst, v.TemplateID)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBatchHeader starts a batch body: uvarint seq, uvarint record
// count. Followed by count AppendRecord encodings it is exactly what
// AppendBatch writes.
func AppendBatchHeader(dst []byte, seq uint64, count int) []byte {
	dst = binary.AppendUvarint(dst, seq)
	return binary.AppendUvarint(dst, uint64(count))
}

// ParseBatchHeader splits a batch body into its seq, record count and
// record bytes. The count is bounded by what the bytes could hold (each
// record costs at least MinRecordBytes), so a hostile count is an error
// rather than an allocation order; the records themselves are not
// checked here.
func ParseBatchHeader(p []byte) (seq uint64, count int, recs []byte, err error) {
	seq, p, ok := Uvarint(p)
	if !ok {
		return 0, 0, nil, Errf("batch: bad seq")
	}
	n, p, ok := Uvarint(p)
	if !ok {
		return 0, 0, nil, Errf("batch: bad record count")
	}
	if n > uint64(len(p)/MinRecordBytes)+1 {
		return 0, 0, nil, Errf("batch: record count %d exceeds body", n)
	}
	return seq, int(n), p, nil
}

// MinRecordBytes is the smallest AppendRecord encoding: 12 bytes of
// time, one of level, and five empty length prefixes.
const MinRecordBytes = 12 + 1 + 5

// RecordView is one AppendRecord-encoded record decoded in place: the
// five string fields are views into the encoded bytes, valid only as
// long as those bytes are, and the time stays in its wire form until
// Time builds it. It is the one decoder of the layout; each caller picks
// how the views become strings (DecodeRecord plain-copies, the serving
// worker interns and resolves against the lookup cache) or whether they
// become strings at all (the ingest edge only validates them).
type RecordView struct {
	Nano   int64 // UnixNano, or ZeroTimeNano for the zero time
	Offset int32 // zone offset in seconds east of UTC
	Level  logging.Level

	Source, Message, Framework, SessionID, TemplateID []byte
}

// Zone remembers the last fixed zone Time built, so a run of records
// sharing one non-UTC offset builds its *time.Location once instead of
// once per record. The zero value is ready; it is not safe for
// concurrent use.
type Zone struct {
	off int32
	loc *time.Location
}

// Time builds the record's time. z may be nil.
func (v *RecordView) Time(z *Zone) time.Time {
	if v.Nano == ZeroTimeNano {
		return time.Time{}
	}
	t := time.Unix(0, v.Nano)
	if v.Offset == 0 {
		return t.UTC()
	}
	if z == nil {
		return t.In(time.FixedZone("", int(v.Offset)))
	}
	if z.loc == nil || z.off != v.Offset {
		z.off, z.loc = v.Offset, time.FixedZone("", int(v.Offset))
	}
	return t.In(z.loc)
}

// Size is the record's string payload in bytes — what the ingest edge
// judges against its per-record cap.
func (v *RecordView) Size() int {
	return len(v.Source) + len(v.Message) + len(v.Framework) + len(v.SessionID) + len(v.TemplateID)
}

// DecodeRecordView decodes one AppendRecord-encoded record into v and
// returns the bytes after it. It allocates nothing.
func DecodeRecordView(p []byte, v *RecordView) (rest []byte, err error) {
	if len(p) < 12 {
		return nil, Errf("record truncated")
	}
	v.Nano = int64(binary.LittleEndian.Uint64(p))
	v.Offset = int32(binary.LittleEndian.Uint32(p[8:]))
	lvl, p, ok := Varint(p[12:])
	if !ok {
		return nil, Errf("record: bad level")
	}
	v.Level = logging.Level(lvl)
	if v.Source, p, ok = Bytes(p); !ok {
		return nil, Errf("record: bad source")
	}
	if v.Message, p, ok = Bytes(p); !ok {
		return nil, Errf("record: bad message")
	}
	if v.Framework, p, ok = Bytes(p); !ok {
		return nil, Errf("record: bad framework")
	}
	if v.SessionID, p, ok = Bytes(p); !ok {
		return nil, Errf("record: bad session")
	}
	if v.TemplateID, p, ok = Bytes(p); !ok {
		return nil, Errf("record: bad template")
	}
	return p, nil
}

// SkipRecords returns the bytes after the first n records of p,
// checking each one decodes.
func SkipRecords(p []byte, n int) ([]byte, error) {
	var v RecordView
	var err error
	for i := 0; i < n; i++ {
		if p, err = DecodeRecordView(p, &v); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// DecodeRecord decodes one AppendRecord-encoded record, plain-copying
// every string (offline tools and tests; the serving worker
// materializes DecodeRecordView's views itself).
func DecodeRecord(p []byte) (rec logging.Record, rest []byte, err error) {
	var v RecordView
	if rest, err = DecodeRecordView(p, &v); err != nil {
		return rec, nil, err
	}
	return v.Record(), rest, nil
}

// Record plain-copies the view into a logging.Record.
func (v *RecordView) Record() logging.Record {
	return logging.Record{
		Time:       v.Time(nil),
		Level:      v.Level,
		Source:     string(v.Source),
		Message:    string(v.Message),
		Framework:  logging.Framework(v.Framework),
		SessionID:  string(v.SessionID),
		TemplateID: string(v.TemplateID),
	}
}
