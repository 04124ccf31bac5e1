package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/par"
)

// The differential oracle: one record stream, several execution paths,
// one canonical report form. Batch detection, the streaming detector and
// a checkpoint/kill/resume run must all reduce to the same canonical
// bytes — any divergence means a path changed detection semantics.

// Canonicalize renders a report in a canonical byte form: the session
// count plus every anomaly as its JSON encoding, sorted. Emission order
// (which legitimately differs between batch, streaming and resumed runs)
// is erased; everything else — kinds, groups, signatures, offending
// records, extracted fields — must match byte for byte.
func Canonicalize(r *detect.Report) ([]byte, error) {
	lines := make([]string, len(r.Anomalies))
	for i := range r.Anomalies {
		raw, err := json.Marshal(&r.Anomalies[i])
		if err != nil {
			return nil, fmt.Errorf("marshal anomaly: %w", err)
		}
		lines[i] = string(raw)
	}
	sort.Strings(lines)
	out, err := json.MarshalIndent(struct {
		Sessions  int      `json:"sessions"`
		Anomalies []string `json:"anomalies"`
	}{r.Sessions, lines}, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// PathReport is one execution path's canonicalized outcome.
type PathReport struct {
	Path  string
	Canon []byte
}

// BatchPath runs plain batch detection over the stream's session view.
func BatchPath(d *detect.Detector, recs []logging.Record) *detect.Report {
	return d.DetectParallel(logging.GroupSessions(recs), 0)
}

// BatchParallelPath runs sharded batch detection at an explicit shard
// count. The ordered merge must make it byte-identical to BatchPath.
func BatchParallelPath(d *detect.Detector, recs []logging.Record, shards int) *detect.Report {
	return d.DetectParallel(logging.GroupSessions(recs), shards)
}

// StreamBatchPath consumes the stream through the two-stage ConsumeBatch
// pipeline (parallel resolve, ordered apply) in chunks, which must be
// indistinguishable from record-at-a-time Consume.
func StreamBatchPath(d *detect.Detector, recs []logging.Record, chunk, workers int) *detect.Report {
	sd := detect.NewStream(d, detect.StreamConfig{})
	var all []detect.Anomaly
	for len(recs) > 0 {
		n := chunk
		if n > len(recs) {
			n = len(recs)
		}
		all = append(all, sd.ConsumeBatch(recs[:n], workers)...)
		recs = recs[n:]
	}
	rep := sd.Flush()
	all = append(all, rep.Anomalies...)
	return &detect.Report{Sessions: rep.Sessions, Anomalies: all}
}

// StreamPath consumes the stream record by record and combines
// mid-stream findings with the flush report.
func StreamPath(d *detect.Detector, recs []logging.Record) *detect.Report {
	sd := detect.NewStream(d, detect.StreamConfig{})
	var all []detect.Anomaly
	for _, r := range recs {
		all = append(all, sd.Consume(r)...)
	}
	rep := sd.Flush()
	all = append(all, rep.Anomalies...)
	return &detect.Report{Sessions: rep.Sessions, Anomalies: all}
}

// ResumePath kills the streaming run after cut records, checkpoints it
// through the real persistence layer (model + stream state + cursor, as a
// crash-stopped CLI would), reloads everything from the checkpoint bytes,
// and finishes the stream on the restored detector — the full
// kill/resume story, including the model's JSON round-trip.
func ResumePath(m *core.Model, recs []logging.Record, cut int) (*detect.Report, error) {
	if cut < 0 || cut > len(recs) {
		return nil, fmt.Errorf("cut %d out of range [0,%d]", cut, len(recs))
	}
	first := detect.NewStream(m.Detector(), detect.StreamConfig{})
	var all []detect.Anomaly
	for _, r := range recs[:cut] {
		all = append(all, first.Consume(r)...)
	}

	var buf bytes.Buffer
	if err := core.SaveCheckpointAt(&buf, m, first.State(), int64(cut)); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m2, st, cursor, err := core.LoadCheckpointAt(&buf)
	if err != nil {
		return nil, fmt.Errorf("reload checkpoint: %w", err)
	}
	if cursor != int64(cut) {
		return nil, fmt.Errorf("checkpoint cursor %d, want %d", cursor, cut)
	}
	second, err := m2.RestoreStream(detect.StreamConfig{}, st)
	if err != nil {
		return nil, fmt.Errorf("restore stream: %w", err)
	}

	for _, r := range recs[cursor:] {
		all = append(all, second.Consume(r)...)
	}
	rep := second.Flush()
	all = append(all, rep.Anomalies...)
	return &detect.Report{Sessions: rep.Sessions, Anomalies: all}, nil
}

// OracleBatchShards are the worker-shard counts the parallel batch
// oracle exercises: fixed small counts plus the machine's CPU width.
// Every count spawns real goroutines (see par.ForEach), so the ordered
// merge is exercised under genuine concurrency even on small machines.
func OracleBatchShards() []int {
	shards := []int{2, 8}
	if n := par.Workers(); n != 2 && n != 8 {
		shards = append(shards, n)
	}
	return shards
}

// RunOracle runs every execution path over one record stream — batch,
// sharded-parallel batch at OracleBatchShards, streaming, chunked
// two-stage streaming, and kill/resume at a seeded random cut — and
// returns the per-path canonical reports. Callers assert every
// PathReport.Canon equals the first (the batch reference).
func RunOracle(m *core.Model, recs []logging.Record, seed int64) ([]PathReport, error) {
	d := m.Detector()
	var out []PathReport
	add := func(path string, rep *detect.Report) error {
		canon, err := Canonicalize(rep)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, PathReport{Path: path, Canon: canon})
		return nil
	}

	if err := add("batch", BatchPath(d, recs)); err != nil {
		return nil, err
	}
	for _, shards := range OracleBatchShards() {
		if err := add(fmt.Sprintf("batch-par-%d", shards), BatchParallelPath(d, recs, shards)); err != nil {
			return nil, err
		}
	}
	if err := add("stream", StreamPath(d, recs)); err != nil {
		return nil, err
	}
	if err := add("stream-batched", StreamBatchPath(d, recs, 64, 4)); err != nil {
		return nil, err
	}
	// Randomized (but seeded) cut point: somewhere strictly inside the
	// stream, so both halves do real work.
	cut := 1
	if len(recs) > 2 {
		cut = 1 + rand.New(rand.NewSource(seed)).Intn(len(recs)-1)
	}
	rep, err := ResumePath(m, recs, cut)
	if err != nil {
		return nil, fmt.Errorf("resume at %d: %w", cut, err)
	}
	if err := add(fmt.Sprintf("resume-at-%d", cut), rep); err != nil {
		return nil, err
	}
	return out, nil
}
