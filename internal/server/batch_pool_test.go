package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"intellog/internal/batch"
	"intellog/internal/conformance"
	"intellog/internal/logging"
	"intellog/internal/wal"
)

// TestPooledDecodeDifferential pins the pooled batch lifecycle against
// the unpooled baseline on every conformance corpus, over both wire
// forms: each corpus is encoded with the production encoders, decoded
// once into freshly allocated slices and once into a single pooled
// batch that is recycled corpus after corpus, and the two decodes must
// be identical record for record. A recycled backing array that leaked
// state between fills (stale records, un-reset length, clobbered
// strings) fails here before it could ever reach the detector.
func TestPooledDecodeDifferential(t *testing.T) {
	pool := batch.NewPool(0)
	pool.DetectLeaks(func(capa int) { t.Errorf("leaked a %d-cap batch", capa) })

	for _, spec := range conformance.DefaultMatrix() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			recs := CorpusFor(spec)

			// NDJSON wire: the replay client's encoder, then the ingest
			// fast path (with strict encoding/json fallback) both ways.
			var lines [][]byte
			for i := range recs {
				line, ok := appendWireRecord(nil, &recs[i])
				if !ok {
					j, err := json.Marshal(WireRecord{Record: recs[i]})
					if err != nil {
						t.Fatal(err)
					}
					line = append(j, '\n')
				}
				lines = append(lines, line[:len(line)-1])
			}
			plain := decodeNDJSON(t, lines, nil)
			b := pool.Get()
			for _, line := range lines {
				b.Append(decodeOneNDJSON(t, line, &batchResolver{intern: &wireIntern{}}))
			}
			if !reflect.DeepEqual(plain, b.Recs) {
				t.Fatalf("NDJSON: pooled decode diverges from unpooled")
			}
			b.Release()

			// ILS1 wire: one encoded frame body, decoded into a fresh
			// slice and into a recycled pooled batch.
			body := wal.AppendBatch(nil, 7, recs)
			_, fresh, err := decodeBatch(body, &batchResolver{intern: &wireIntern{}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pb := pool.Get()
			seq, out, err := decodeBatch(body, &batchResolver{intern: &wireIntern{}}, pb.Recs[:0])
			pb.Recs = out
			if err != nil {
				t.Fatal(err)
			}
			if seq != 7 {
				t.Fatalf("seq = %d, want 7", seq)
			}
			if !reflect.DeepEqual(fresh, pb.Recs) {
				t.Fatalf("ILS1: pooled decode diverges from unpooled")
			}
			pb.Release()
		})
	}

	if st := pool.Stats(); st.Outstanding != 0 || st.Leaked != 0 {
		t.Fatalf("pool not quiesced after all corpora: %+v", st)
	}
}

// decodeNDJSON decodes lines the unpooled way: a fresh record slice, a
// per-call resolver (nil intern behaves like a cold one).
func decodeNDJSON(t *testing.T, lines [][]byte, br *batchResolver) []logging.Record {
	t.Helper()
	var out []logging.Record
	for _, line := range lines {
		out = append(out, decodeOneNDJSON(t, line, br))
	}
	return out
}

func decodeOneNDJSON(t *testing.T, line []byte, br *batchResolver) logging.Record {
	t.Helper()
	var wr WireRecord
	if !fastWireRecord(line, &wr, br) {
		wr = WireRecord{}
		if err := json.Unmarshal(line, &wr); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	return wr.Record
}
