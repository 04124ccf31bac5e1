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
	n := 1 + len(body) + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, typ)
	dst = append(dst, body...)
	crc := crc32.ChecksumIEEE(dst[len(dst)-1-len(body):])
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
// fidelity). The same bytes travel in wire Batch frames and WAL entries.
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
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = AppendRecord(dst, &recs[i])
	}
	return dst
}

// RecordView is one AppendRecord-encoded record decoded in place: the
// five string fields are views into the encoded bytes, valid only as
// long as those bytes are. It is the one decoder of the layout; each
// caller picks how the views become strings (DecodeRecord plain-copies,
// the serving wire interns and resolves against the lookup cache).
type RecordView struct {
	Time  time.Time
	Level logging.Level

	Source, Message, Framework, SessionID, TemplateID []byte
}

// DecodeRecordView decodes one AppendRecord-encoded record into v and
// returns the bytes after it.
func DecodeRecordView(p []byte, v *RecordView) (rest []byte, err error) {
	if len(p) < 12 {
		return nil, Errf("record truncated")
	}
	nano := int64(binary.LittleEndian.Uint64(p))
	off := int32(binary.LittleEndian.Uint32(p[8:]))
	lvl, p, ok := Varint(p[12:])
	if !ok {
		return nil, Errf("record: bad level")
	}
	v.Level = logging.Level(lvl)
	v.Time = time.Time{}
	if nano != ZeroTimeNano {
		t := time.Unix(0, nano)
		if off == 0 {
			v.Time = t.UTC()
		} else {
			v.Time = t.In(time.FixedZone("", int(off)))
		}
	}
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

// DecodeRecord decodes one AppendRecord-encoded record, plain-copying
// every string (WAL replay and offline tools; the serving wire
// materializes DecodeRecordView's views itself).
func DecodeRecord(p []byte) (rec logging.Record, rest []byte, err error) {
	var v RecordView
	if rest, err = DecodeRecordView(p, &v); err != nil {
		return rec, nil, err
	}
	return logging.Record{
		Time:       v.Time,
		Level:      v.Level,
		Source:     string(v.Source),
		Message:    string(v.Message),
		Framework:  logging.Framework(v.Framework),
		SessionID:  string(v.SessionID),
		TemplateID: string(v.TemplateID),
	}, rest, nil
}
