package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"intellog/internal/batch"
	"intellog/internal/logging"
	"intellog/internal/wal"
)

// This file keeps the ingest edge's plain reference: every record is
// decoded into a logging.Record (wal.DecodeRecord, or encoding/json for
// NDJSON), then validated, then given the connection's framework. The
// production edge validates byte views and passes the encoding on; the
// differential tests below require the two to agree on every input.

// edgeResult is one batch's verdict at the edge: the records admitted
// (decoded back from the batch body for the production edge), and the
// records skipped and dead-lettered.
type edgeResult struct {
	kept    []logging.Record
	skipped int
	dead    []wal.DeadLetter
}

// edgeServer is a Server with only the configuration the edge reads.
func edgeServer(maxRecord int) *Server {
	cfg := Config{MaxRecordBytes: maxRecord}
	cfg.defaults()
	return &Server{cfg: cfg}
}

// refFilterBatch is the reference ILS1 edge over a Batch frame body.
func refFilterBatch(s *Server, fw logging.Framework, body []byte) (uint64, edgeResult, error) {
	var res edgeResult
	seq, p, ok := wal.Uvarint(body)
	if !ok {
		return 0, res, fmt.Errorf("bad seq")
	}
	count, p, ok := wal.Uvarint(p)
	if !ok {
		return 0, res, fmt.Errorf("bad count")
	}
	for i := uint64(0); i < count; i++ {
		rec, rest, err := wal.DecodeRecord(p)
		if err != nil {
			return 0, res, err
		}
		p = rest
		size := len(rec.Message) + len(rec.Source) + len(rec.SessionID) +
			len(rec.TemplateID) + len(rec.Framework)
		switch {
		case rec.Message == "":
			res.dead = append(res.dead, wal.DeadLetter{Reason: "record has no message", Line: deadLetterLine(&rec)})
		case size > s.cfg.MaxRecordBytes:
			res.dead = append(res.dead, wal.DeadLetter{
				Reason: fmt.Sprintf("record payload of %d bytes exceeds the %d-byte record cap", size, s.cfg.MaxRecordBytes),
				Line:   deadLetterLine(&rec)})
		case rec.SessionID == "":
			res.skipped++
		default:
			if rec.Framework == "" {
				rec.Framework = fw
			}
			res.kept = append(res.kept, rec)
		}
	}
	if len(p) != 0 {
		return 0, res, fmt.Errorf("%d trailing bytes", len(p))
	}
	return seq, res, nil
}

// edgeFilterBatch runs the production ILS1 edge over a Batch frame body
// into a batch from pool, and returns the batch (nil on error) beside
// the verdict.
func edgeFilterBatch(s *Server, pool *batch.Pool, fw logging.Framework, body []byte) (uint64, edgeResult, *batch.Batch, error) {
	var res edgeResult
	seq, count, recs, err := wal.ParseBatchHeader(body)
	if err != nil {
		return 0, res, nil, err
	}
	b := pool.Get()
	if res.skipped, res.dead, err = s.filterBatch(fw, count, recs, b); err != nil {
		b.Release()
		return 0, res, nil, err
	}
	res.kept = decodeBody(b.N, b.Body)
	return seq, res, b, nil
}

// decodeBody plain-decodes a batch body of n records, or returns nil
// when it does not hold exactly n.
func decodeBody(n int, body []byte) []logging.Record {
	var out []logging.Record
	for i := 0; i < n; i++ {
		rec, rest, err := wal.DecodeRecord(body)
		if err != nil {
			return nil
		}
		out = append(out, rec)
		body = rest
	}
	if len(body) != 0 {
		return nil
	}
	return out
}

// refClassifyLine is the reference NDJSON edge for one line: the
// encoding/json decode, then the same rules classifyLine applies.
func refClassifyLine(s *Server, t *tenant, raw []byte, fw logging.Framework, f logging.Formatter) (logging.Record, lineVerdict, string) {
	if len(raw) > s.cfg.MaxRecordBytes {
		return logging.Record{}, lineDead,
			fmt.Sprintf("record of %d bytes exceeds the %d-byte record cap", len(raw), s.cfg.MaxRecordBytes)
	}
	var wr WireRecord
	if err := json.Unmarshal(raw, &wr); err != nil {
		return logging.Record{}, lineDead, fmt.Sprintf("invalid JSON: %v", err)
	}
	if wr.Line != "" {
		rec, ok := t.parseLine(f, wr.Line)
		if !ok {
			return logging.Record{}, lineSkip, ""
		}
		if err := wal.CheckTime(rec.Time); err != nil {
			return logging.Record{}, lineDead, err.Error()
		}
		return rec, lineRecord, ""
	}
	rec := wr.Record
	switch {
	case rec.Message == "":
		return logging.Record{}, lineDead, "record has no message (and no raw line)"
	case rec.SessionID == "":
		return logging.Record{}, lineSkip, ""
	}
	if err := wal.CheckTime(rec.Time); err != nil {
		return logging.Record{}, lineDead, err.Error()
	}
	if rec.Framework == "" {
		rec.Framework = fw
	}
	return rec, lineRecord, ""
}

// ndjsonLines splits a body into the non-empty lines the ingest
// scanner yields.
func ndjsonLines(body []byte) [][]byte {
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			out = append(out, append([]byte(nil), sc.Bytes()...))
		}
	}
	return out
}

// refNDJSON runs lines through the reference NDJSON edge.
func refNDJSON(s *Server, fw logging.Framework, lines [][]byte) edgeResult {
	var res edgeResult
	t, f := &tenant{}, logging.FormatterFor(fw)
	for _, raw := range lines {
		rec, verdict, reason := refClassifyLine(s, t, raw, fw, f)
		switch verdict {
		case lineRecord:
			if rec.Time.IsZero() {
				rec.Time = time.Time{} // the zero-time sentinel carries no zone
			}
			res.kept = append(res.kept, rec)
		case lineSkip:
			res.skipped++
		case lineDead:
			res.dead = append(res.dead, wal.DeadLetter{Reason: reason, Line: string(raw)})
		}
	}
	return res
}

// edgeNDJSON runs lines through the production NDJSON edge into a batch
// from pool, which the caller releases.
func edgeNDJSON(s *Server, pool *batch.Pool, fw logging.Framework, lines [][]byte) (edgeResult, *batch.Batch) {
	var res edgeResult
	t, f := &tenant{}, logging.FormatterFor(fw)
	b := pool.Get()
	for _, raw := range lines {
		verdict, reason := s.classifyLine(t, raw, fw, f, b)
		switch verdict {
		case lineSkip:
			res.skipped++
		case lineDead:
			res.dead = append(res.dead, wal.DeadLetter{Reason: reason, Line: string(raw)})
		}
	}
	res.kept = decodeBody(b.N, b.Body)
	return res, b
}

// assertSameEdge requires the production edge's verdict to equal the
// reference's: the same counts and dead letters, and kept records equal
// field for field (times by instant and zone offset).
func assertSameEdge(t *testing.T, got, want edgeResult, gotN int) {
	t.Helper()
	if gotN != len(want.kept) || len(got.kept) != len(want.kept) {
		t.Fatalf("edge kept %d records (body decodes to %d), reference %d", gotN, len(got.kept), len(want.kept))
	}
	if got.skipped != want.skipped {
		t.Fatalf("edge skipped %d, reference %d", got.skipped, want.skipped)
	}
	if len(got.dead) != len(want.dead) {
		t.Fatalf("edge dead-lettered %d, reference %d", len(got.dead), len(want.dead))
	}
	for i := range want.dead {
		if got.dead[i] != want.dead[i] {
			t.Fatalf("dead letter %d: edge %+v, reference %+v", i, got.dead[i], want.dead[i])
		}
	}
	for i := range want.kept {
		assertSameRecord(t, i, got.kept[i], want.kept[i])
	}
}

func assertSameRecord(t *testing.T, i int, g, w logging.Record) {
	t.Helper()
	_, goff := g.Time.Zone()
	_, woff := w.Time.Zone()
	if !g.Time.Equal(w.Time) || goff != woff || g.Time.IsZero() != w.Time.IsZero() {
		t.Fatalf("record %d time: edge %v, reference %v", i, g.Time, w.Time)
	}
	g.Time, w.Time = time.Time{}, time.Time{}
	if g != w {
		t.Fatalf("record %d: edge %+v, reference %+v", i, g, w)
	}
}
