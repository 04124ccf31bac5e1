package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

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
	return consumeParts(sd, all)
}

// StreamPath consumes the stream record by record and combines
// mid-stream findings with the flush report.
func StreamPath(d *detect.Detector, recs []logging.Record) *detect.Report {
	return consumeParts(detect.NewStream(d, detect.StreamConfig{}), nil, recs)
}

// consumeParts feeds each part through sd in turn, record by record,
// then flushes, and returns every finding (after the ones already in
// all) with the flush report's session count.
func consumeParts(sd *detect.StreamDetector, all []detect.Anomaly, parts ...[]logging.Record) *detect.Report {
	for _, part := range parts {
		for _, r := range part {
			all = append(all, sd.Consume(r)...)
		}
	}
	rep := sd.Flush()
	return &detect.Report{Sessions: rep.Sessions, Anomalies: append(all, rep.Anomalies...)}
}

// LaggedSplit partitions recs the way the server routes sessions across
// n ingest workers (FNV-1a of the session ID, mod n), keeping input
// order within each part. Draining the parts one after another through
// one detector is the deterministic worst case of queue lag: worker 0
// finishes before worker 1 starts.
func LaggedSplit(recs []logging.Record, n int) [][]logging.Record {
	parts := make([][]logging.Record, n)
	for _, r := range recs {
		h := uint32(2166136261)
		for i := 0; i < len(r.SessionID); i++ {
			h ^= uint32(r.SessionID[i])
			h *= 16777619
		}
		i := int(h % uint32(n))
		parts[i] = append(parts[i], r)
	}
	return parts
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
	return consumeParts(second, all, recs[cursor:]), nil
}

// OracleBatchShards are the worker-shard counts the parallel batch
// oracle exercises: fixed small counts plus par.Workers(), the process's
// GOMAXPROCS.
// Every count spawns real goroutines (see par.ForEach), so the ordered
// merge is exercised under genuine concurrency even on small machines.
func OracleBatchShards() []int {
	shards := []int{2, 8}
	if n := par.Workers(); n != 2 && n != 8 {
		shards = append(shards, n)
	}
	return shards
}

// OracleIdles are the idle timeouts the idle legs run: the daemon's
// shipped -idle default, and a long one.
var OracleIdles = []time.Duration{5 * time.Minute, 30 * time.Minute}

// Leg is one row of the oracle's leg table: an execution path from a
// record stream to a detection report.
type Leg struct {
	Name string
	Run  func(m *core.Model, recs []logging.Record) (*detect.Report, error)
}

// OracleLegs is the leg table. The first leg, batch, is the reference
// every other leg is compared with; cut is the resume leg's kill point.
// The idle legs run the stream with the session idle timeout on, once
// through one consumer and once as two lagged consumers (LaggedSplit).
// Cells where goroutines race are not legs: their outcome is not a
// function of the corpus.
func OracleLegs(cut int) []Leg {
	plain := func(run func(d *detect.Detector, recs []logging.Record) *detect.Report) func(*core.Model, []logging.Record) (*detect.Report, error) {
		return func(m *core.Model, recs []logging.Record) (*detect.Report, error) {
			return run(m.Detector(), recs), nil
		}
	}
	legs := []Leg{{"batch", plain(BatchPath)}}
	for _, shards := range OracleBatchShards() {
		shards := shards
		legs = append(legs, Leg{fmt.Sprintf("batch-par-%d", shards), plain(func(d *detect.Detector, recs []logging.Record) *detect.Report {
			return BatchParallelPath(d, recs, shards)
		})})
	}
	legs = append(legs,
		Leg{"stream", plain(StreamPath)},
		Leg{"stream-batched", plain(func(d *detect.Detector, recs []logging.Record) *detect.Report {
			return StreamBatchPath(d, recs, 64, 4)
		})},
		Leg{fmt.Sprintf("resume-at-%d", cut), func(m *core.Model, recs []logging.Record) (*detect.Report, error) {
			return ResumePath(m, recs, cut)
		}},
	)
	for _, idle := range OracleIdles {
		cfg := detect.StreamConfig{IdleTimeout: idle}
		suffix := fmt.Sprintf("-idle%dm", idle/time.Minute)
		legs = append(legs,
			Leg{"stream" + suffix, plain(func(d *detect.Detector, recs []logging.Record) *detect.Report {
				return consumeParts(detect.NewStream(d, cfg), nil, recs)
			})},
			Leg{"lagged2" + suffix, plain(func(d *detect.Detector, recs []logging.Record) *detect.Report {
				return consumeParts(detect.NewStream(d, cfg), nil, LaggedSplit(recs, 2)...)
			})},
		)
	}
	return legs
}

// PathReport is one leg's outcome over one record stream.
type PathReport struct {
	Path                string
	Anomalies, Sessions int
	// Canon is the canonical report. It is nil when the counts already
	// differ from the reference's: a divergent cell is checked on counts
	// only, and canonicalizing its (up to hundreds of thousands of)
	// findings buys nothing.
	Canon []byte
}

// Diverges reports whether p differs from the reference report ref.
func (p PathReport) Diverges(ref PathReport) bool {
	return p.Canon == nil || !bytes.Equal(p.Canon, ref.Canon)
}

// Cell names p as a cell of the known-divergent ratchet.
func (p PathReport) Cell(corpus string) Cell {
	return Cell{Corpus: corpus, Leg: p.Path, Anomalies: p.Anomalies, Sessions: p.Sessions}
}

// RunOracle runs every leg of OracleLegs over one record stream, with
// the resume leg cut at a seeded random point, and returns the per-leg
// reports in table order. Callers judge every report against the first
// (the batch reference) through the known-divergent ratchet.
func RunOracle(m *core.Model, recs []logging.Record, seed int64) ([]PathReport, error) {
	// Randomized (but seeded) cut point: somewhere strictly inside the
	// stream, so both halves do real work.
	cut := 1
	if len(recs) > 2 {
		cut = 1 + rand.New(rand.NewSource(seed)).Intn(len(recs)-1)
	}
	var out []PathReport
	for _, leg := range OracleLegs(cut) {
		rep, err := leg.Run(m, recs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", leg.Name, err)
		}
		p := PathReport{Path: leg.Name, Anomalies: len(rep.Anomalies), Sessions: rep.Sessions}
		if len(out) == 0 || (p.Anomalies == out[0].Anomalies && p.Sessions == out[0].Sessions) {
			if p.Canon, err = Canonicalize(rep); err != nil {
				return nil, fmt.Errorf("%s: %w", leg.Name, err)
			}
		}
		out = append(out, p)
	}
	return out, nil
}
