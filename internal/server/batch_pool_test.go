package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"intellog/internal/batch"
	"intellog/internal/conformance"
	"intellog/internal/wal"
)

// TestPooledDecodeDifferential pins the pooled batch lifecycle against
// the unpooled baseline on every conformance corpus, over both wire
// forms: each corpus is encoded with the production encoders and run
// through the edge once into a fresh pool's batch and once into a
// single pooled batch that is recycled corpus after corpus; the two
// bodies must be byte-identical and decode to the reference edge's
// records. A recycled buffer that leaked state between fills (stale
// bytes, an un-reset count) fails here before it could ever reach the
// detector.
func TestPooledDecodeDifferential(t *testing.T) {
	pool := batch.NewPool(0)
	pool.DetectLeaks(func(capa int) { t.Errorf("leaked a %d-byte batch", capa) })
	s := edgeServer(0)

	for _, spec := range conformance.DefaultMatrix() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			recs := CorpusFor(spec)

			// NDJSON wire: the replay client's encoder, then the ingest
			// fast path (with strict encoding/json fallback).
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
			want := refNDJSON(s, spec.Framework, lines)
			_, fb := edgeNDJSON(s, batch.NewPool(0), spec.Framework, lines)
			got, b := edgeNDJSON(s, pool, spec.Framework, lines)
			assertSameEdge(t, got, want, b.N)
			if !bytes.Equal(fb.Body, b.Body) || fb.N != b.N {
				t.Fatalf("NDJSON: pooled body diverges from unpooled")
			}
			fb.Release()
			b.Release()

			// ILS1 wire: one encoded frame body.
			body := wal.AppendBatch(nil, 7, recs)
			_, wantBin, err := refFilterBatch(s, spec.Framework, body)
			if err != nil {
				t.Fatal(err)
			}
			_, _, fb, err = edgeFilterBatch(s, batch.NewPool(0), spec.Framework, body)
			if err != nil {
				t.Fatal(err)
			}
			seq, gotBin, pb, err := edgeFilterBatch(s, pool, spec.Framework, body)
			if err != nil {
				t.Fatal(err)
			}
			if seq != 7 {
				t.Fatalf("seq = %d, want 7", seq)
			}
			assertSameEdge(t, gotBin, wantBin, pb.N)
			if !bytes.Equal(fb.Body, pb.Body) || fb.N != pb.N {
				t.Fatalf("ILS1: pooled body diverges from unpooled")
			}
			fb.Release()
			pb.Release()
		})
	}

	if st := pool.Stats(); st.Outstanding != 0 || st.Leaked != 0 {
		t.Fatalf("pool not quiesced after all corpora: %+v", st)
	}
}
