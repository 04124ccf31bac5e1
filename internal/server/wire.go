package server

import (
	"encoding/binary"
	"strconv"
	"time"
	"unicode/utf8"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// The NDJSON wire format is plain encoding/json over WireRecord, but
// the reflective codec dominates the serving CPU profile (checkValid +
// decodeState eat ~half the intellogd samples under replay, detection
// under a tenth). This file is the fast path both ends share: a
// hand-rolled decoder for the structured record shape the replay client
// emits, which yields byte views the handler encodes straight into the
// batch (no field becomes a string on the ack path), and a matching
// appender the client uses to build batches.
// Either side falls back to encoding/json the moment a line strays from
// the simple shape — an escape sequence, non-ASCII text, an unknown
// key — so wire semantics stay exactly encoding/json's; the fast path
// only ever accepts inputs on which the two agree.

// plainWireChar marks bytes that may appear verbatim inside a fast-path
// string literal: printable ASCII except the terminator '"' and the
// escape introducer '\'. One table load replaces the three compares the
// scan's inner loop used to make per byte.
var plainWireChar = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['"'] = false
	t['\\'] = false
	return
}()

const (
	swarOnes uint64 = 0x0101010101010101
	swarHigh uint64 = 0x8080808080808080
)

// hasSpecialWireByte reports whether any byte of the 8-byte word must
// end or fail the fast string scan: a control byte (< 0x20), '"', '\\',
// or non-ASCII (>= 0x80). Standard SWAR detectors (hasless/hasvalue),
// exact for these operands — but correctness only needs no false
// negatives, since the scalar loop after the chunked skip re-judges the
// flagged word byte by byte.
func hasSpecialWireByte(x uint64) bool {
	quote := x ^ (swarOnes * '"')
	slash := x ^ (swarOnes * '\\')
	mask := x & swarHigh                        // >= 0x80
	mask |= (x - swarOnes*0x20) & ^x & swarHigh // < 0x20
	mask |= (quote - swarOnes) & ^quote & swarHigh
	mask |= (slash - swarOnes) & ^slash & swarHigh
	return mask != 0
}

// scanWireString scans the string literal at raw[i] and returns its
// body (plain printable ASCII, so the bytes are the value), the index
// past the closing quote, and whether the literal fits the fast shape.
// The scan is a single pass with no re-slicing: an 8-byte SWAR skip
// over plain runs, then a table-driven byte loop for the remainder.
func scanWireString(raw []byte, i int) ([]byte, int, bool) {
	if i >= len(raw) || raw[i] != '"' {
		return nil, i, false
	}
	i++
	start := i
	for i+8 <= len(raw) && !hasSpecialWireByte(binary.LittleEndian.Uint64(raw[i:])) {
		i += 8
	}
	for i < len(raw) && plainWireChar[raw[i]] {
		i++
	}
	if i < len(raw) && raw[i] == '"' {
		return raw[start:i], i + 1, true
	}
	return nil, i, false
}

// wireView is one structured NDJSON line decoded in place: the record
// fields as a wal.RecordView over the line's bytes, plus the raw "line"
// field when present.
type wireView struct {
	wal.RecordView
	Line []byte
}

// fastWireRecord decodes one structured NDJSON line into wv as views
// into raw. It handles a single flat object whose keys are exactly
// Record's fields (any order, any subset, plus "line"), with plain
// printable-ASCII string values and a bare-integer Level. Returns false
// — with wv possibly half-filled, the caller must re-decode from
// scratch — on anything else: escapes, non-ASCII, unknown keys,
// unexpected value shapes, malformed JSON.
func fastWireRecord(raw []byte, wv *wireView) bool {
	*wv = wireView{}
	wv.Nano = wal.ZeroTimeNano
	i := 0
	ws := func() {
		for i < len(raw) {
			switch raw[i] {
			case ' ', '\t', '\r', '\n':
				i++
			default:
				return
			}
		}
	}

	ws()
	if i >= len(raw) || raw[i] != '{' {
		return false
	}
	i++
	ws()
	if i < len(raw) && raw[i] == '}' {
		i++
		ws()
		return i == len(raw)
	}
	for {
		ws()
		key, ni, ok := scanWireString(raw, i)
		if !ok {
			return false
		}
		i = ni
		ws()
		if i >= len(raw) || raw[i] != ':' {
			return false
		}
		i++
		ws()
		if string(key) == "Level" {
			// Level rides the wire as a bare integer (logging.Level has no
			// custom marshaler). Anything else — fractions, exponents,
			// strings — falls back to encoding/json.
			neg := false
			if i < len(raw) && raw[i] == '-' {
				neg = true
				i++
			}
			start := i
			n := 0
			for i < len(raw) && raw[i] >= '0' && raw[i] <= '9' {
				n = n*10 + int(raw[i]-'0')
				i++
			}
			if i == start || i-start > 9 {
				return false
			}
			if neg {
				n = -n
			}
			wv.Level = logging.Level(n)
		} else {
			quote := i
			val, ni, ok := scanWireString(raw, i)
			if !ok {
				return false
			}
			i = ni
			switch string(key) { // the conversion is elided in a switch
			case "Time":
				// Hand the still-quoted literal to time.Time's own parser,
				// so accepted formats match encoding/json exactly.
				var at time.Time
				if err := at.UnmarshalJSON(raw[quote:i]); err != nil {
					return false
				}
				if wal.CheckTime(at) != nil {
					return false // the fallback dead-letters it
				}
				wv.Nano, wv.Offset = wal.ZeroTimeNano, 0
				if !at.IsZero() {
					_, off := at.Zone()
					wv.Nano, wv.Offset = at.UnixNano(), int32(off)
				}
			case "Source":
				wv.Source = val
			case "Message":
				wv.Message = val
			case "Framework":
				wv.Framework = val
			case "SessionID":
				wv.SessionID = val
			case "TemplateID":
				wv.TemplateID = val
			case "line":
				wv.Line = val
			default:
				return false
			}
		}
		ws()
		if i >= len(raw) {
			return false
		}
		switch raw[i] {
		case ',':
			i++
		case '}':
			i++
			ws()
			return i == len(raw)
		default:
			return false
		}
	}
}

// appendWireRecord appends rec's NDJSON line (newline included) when
// every field fits the fast shape; returns ok=false with buf untouched
// when the caller must fall back to encoding/json for this record.
func appendWireRecord(buf []byte, rec *logging.Record) ([]byte, bool) {
	if y := rec.Time.Year(); y < 0 || y > 9999 {
		// time.Time.MarshalJSON rejects these; AppendFormat would not.
		return buf, false
	}
	n := len(buf)
	buf = append(buf, `{"Time":"`...)
	buf = rec.Time.AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","Level":`...)
	buf = strconv.AppendInt(buf, int64(rec.Level), 10)
	var ok bool
	if buf, ok = appendField(buf, `,"Source":"`, rec.Source); !ok {
		return buf[:n], false
	}
	if buf, ok = appendField(buf, `","Message":"`, rec.Message); !ok {
		return buf[:n], false
	}
	if buf, ok = appendField(buf, `","Framework":"`, string(rec.Framework)); !ok {
		return buf[:n], false
	}
	if buf, ok = appendField(buf, `","SessionID":"`, rec.SessionID); !ok {
		return buf[:n], false
	}
	if buf, ok = appendField(buf, `","TemplateID":"`, rec.TemplateID); !ok {
		return buf[:n], false
	}
	return append(buf, `"}`+"\n"...), true
}

// appendField appends the field separator (closing the previous value
// and opening this string) plus val, when val needs no escaping.
func appendField(buf []byte, sep, val string) ([]byte, bool) {
	for i := 0; i < len(val); i++ {
		c := val[i]
		if c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			return buf, false
		}
	}
	buf = append(buf, sep...)
	return append(buf, val...), true
}
