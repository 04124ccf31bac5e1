package detect

import (
	"fmt"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

// Decoder is one serving worker's decode scratch for ConsumeEncoded:
// the record array a batch decodes into, each record's message bytes,
// the interner of the small repeating fields, and the last fixed zone.
// It is reused batch after batch by one goroutine; the zero value is
// ready.
type Decoder struct {
	recs   []logging.Record
	msgs   [][]byte
	intern interner
	zone   wal.Zone
}

// decode fills d.recs and d.msgs with count records from body. Every
// field but the message is materialized here — the small ones through
// the interner — while the message stays a view into body until the
// resolve stage's probe.
func (d *Decoder) decode(count int, body []byte) error {
	if count < 0 || count > len(body)/wal.MinRecordBytes {
		return fmt.Errorf("detect: %d records cannot fit %d bytes", count, len(body))
	}
	if cap(d.recs) < count {
		d.recs = make([]logging.Record, count)
		d.msgs = make([][]byte, count)
	}
	d.recs, d.msgs = d.recs[:count], d.msgs[:count]
	var v wal.RecordView
	var err error
	for i := range d.recs {
		if body, err = wal.DecodeRecordView(body, &v); err != nil {
			return fmt.Errorf("detect: record %d: %w", i, err)
		}
		d.recs[i] = logging.Record{
			Time:       v.Time(&d.zone),
			Level:      v.Level,
			Source:     d.intern.get(v.Source),
			Framework:  logging.Framework(d.intern.get(v.Framework)),
			SessionID:  d.intern.get(v.SessionID),
			TemplateID: d.intern.get(v.TemplateID),
		}
		d.msgs[i] = v.Message
	}
	if len(body) != 0 {
		return fmt.Errorf("detect: %d trailing bytes after %d records", len(body), count)
	}
	return nil
}

// interner dedups the small strings that repeat across a worker's
// records — session IDs, sources, template IDs, framework names — so a
// session's hundreds of records share one allocation of its ID. It lives
// as long as its worker, so it is bounded: at internCap entries the
// table resets wholesale, and dedup restarts warm within a batch, which
// is where virtually all the repetition lives.
type interner struct {
	m map[string]string
}

// internCap bounds an interner's table. Real streams carry a few
// hundred distinct small strings; the cap only makes the worst case (a
// high-cardinality stream of session IDs) a reset instead of a leak.
const internCap = 4096

func (in *interner) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // no-alloc lookup
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string, 64)
	} else if len(in.m) >= internCap {
		clear(in.m)
	}
	in.m[s] = s
	return s
}
