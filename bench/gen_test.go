package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"intellog/internal/core"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/server"
	"intellog/internal/spell"
	"intellog/internal/wal"
)

// encodeCycle renders a cycle to bytes, so "same inputs" means the
// same bytes and not merely equal structs.
func encodeCycle(in *inputs) []byte {
	var buf []byte
	for _, ep := range in.epochs {
		for i := range ep.recs {
			buf = wal.AppendRecord(buf, &ep.recs[i])
		}
	}
	for _, s := range in.train {
		for i := range s.Records {
			buf = wal.AppendRecord(buf, &s.Records[i])
		}
	}
	return buf
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, fw := range []logging.Framework{logging.Spark, logging.HDFS} {
		a, b := genInputs(fw, 1, 2), genInputs(fw, 1, 2)
		if !bytes.Equal(encodeCycle(a), encodeCycle(b)) {
			t.Errorf("%s: seed 1 generated two different cycles", fw)
		}
		if c := genInputs(fw, 2, 2); bytes.Equal(encodeCycle(a), encodeCycle(c)) {
			t.Errorf("%s: seeds 1 and 2 generated the same cycle", fw)
		}
	}
}

// Hazard 2 of the README: a pass replayed without its time shift makes
// every record late. The generator's monotone event time is what the
// daemon's steady state rests on.
func TestEventTimeMonotoneAcrossEpochsAndPasses(t *testing.T) {
	for _, fw := range []logging.Framework{logging.Spark, logging.HDFS} {
		in := genInputs(fw, 1, 3)
		var prevMax time.Time
		seen := map[string]bool{}
		var recs []logging.Record
		for pass := 0; pass < 3; pass++ {
			for e, ep := range in.epochs {
				v := in.view(pass, e)
				recs = ep.fill(recs[:0], 0, len(ep.recs), v)
				lo, hi := recs[0].Time, recs[0].Time
				ids := map[string]bool{}
				for i := range recs {
					if i > 0 && recs[i].Time.Before(recs[i-1].Time) {
						t.Fatalf("%s pass %d epoch %d: record %d goes back in time", fw, pass, e, i)
					}
					if recs[i].Time.After(hi) {
						hi = recs[i].Time
					}
					ids[recs[i].SessionID] = true
				}
				if !prevMax.IsZero() {
					if gap := lo.Sub(prevMax); gap < 2*idleTimeout {
						t.Errorf("%s pass %d epoch %d starts %s after the previous epoch ends; want ≥ %s", fw, pass, e, gap, 2*idleTimeout)
					}
				}
				if hi.Sub(lo) >= idleTimeout {
					t.Errorf("%s epoch %d spans %s: a session could idle out inside its own epoch", fw, e, hi.Sub(lo))
				}
				prevMax = hi
				for id := range ids {
					if seen[id] {
						t.Fatalf("%s pass %d epoch %d: session %q already used", fw, pass, e, id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func distinctRenderings(eps []*epoch) int {
	seen := map[string]struct{}{}
	for _, ep := range eps {
		for i := range ep.recs {
			seen[ep.recs[i].Message] = struct{}{}
		}
	}
	return len(seen)
}

// The two frameworks are in the benchmark because they sit on opposite
// sides of the daemon's lookup cache. That is a property of the
// generated data, so it is asserted, not assumed.
func TestVocabularyPremise(t *testing.T) {
	if testing.Short() {
		t.Skip("generates six full cycles")
	}
	for seed := int64(1); seed <= 3; seed++ {
		spark := genInputs(logging.Spark, seed, 0)
		for e, ep := range spark.epochs {
			if share := float64(distinctRenderings([]*epoch{ep})) / float64(len(ep.recs)); share > 0.4 {
				t.Errorf("seed %d spark epoch %d: distinct-rendering share %.2f > 0.4", seed, e, share)
			}
		}
		d := float64(distinctRenderings(spark.epochs))
		if d > sparkDistinctCap {
			t.Errorf("seed %d spark cycle: %.0f distinct renderings > %.0f (0.85 × lookup cache): steady state would not be all hits", seed, d, sparkDistinctCap)
		}
		// The working set the daemon's memory follows is about the same
		// on every seed: the cycle stops within an epoch of the cap.
		if low := 0.65 * spell.DefaultLookupCacheSize; d < low {
			t.Errorf("seed %d spark cycle: %.0f distinct renderings < %.0f: the cycle stopped more than an epoch short of the cap", seed, d, low)
		}
		t.Logf("seed %d spark cycle: %d epochs, %d records, %.0f distinct", seed, len(spark.epochs), spark.records, d)

		hdfs := genInputs(logging.HDFS, seed, 0)
		for e, ep := range hdfs.epochs {
			if share := float64(distinctRenderings([]*epoch{ep})) / float64(len(ep.recs)); share < 0.9 {
				t.Errorf("seed %d hdfs epoch %d: distinct-rendering share %.2f < 0.9", seed, e, share)
			}
		}
		if d, limit := distinctRenderings(hdfs.epochs), 1.25*spell.DefaultLookupCacheSize; float64(d) < limit {
			t.Errorf("seed %d hdfs cycle: %d distinct renderings < %.0f (1.25 × lookup cache): steady state would not be all misses", seed, d, limit)
		}
	}
}

func TestProbeMatchesNoSpellKey(t *testing.T) {
	for _, fw := range []logging.Framework{logging.Spark, logging.HDFS} {
		in := genInputs(fw, 1, 1)
		model := core.Train(in.train, core.Config{})
		for n := 0; n < 50; n++ {
			p := probeRecord(n, &in.epochs[0].recs[0])
			if k := model.Parser.Lookup(nlp.Texts(nlp.Tokenize(p.Message))); k != nil {
				t.Fatalf("%s: probe %d matches Spell key %d", fw, n, k.ID)
			}
		}
	}
}

// The pre-encoded NDJSON templates must say exactly what the records
// say: decoded the way the daemon's fallback decoder would, every line
// equals the record fill produces for the same pass.
func TestNDJSONTemplatesMatchRecords(t *testing.T) {
	in := genInputs(logging.Spark, 1, 1)
	ep := in.epochs[0]
	ep.buildNDJSON()
	const pass, n = 3, 2000
	v := in.view(pass, 0)
	want := ep.fill(nil, 0, n, v)
	lines := bytes.Split(bytes.TrimSuffix(ep.fillNDJSON(nil, 0, n, pass, 0, v), []byte("\n")), []byte("\n"))
	if len(lines) != n {
		t.Fatalf("%d lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		var wr server.WireRecord
		if err := json.Unmarshal(line, &wr); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		got := wr.Record
		if !got.Time.Equal(want[i].Time) {
			t.Fatalf("line %d: time %s, want %s", i, got.Time, want[i].Time)
		}
		got.Time = want[i].Time
		if got != want[i] {
			t.Fatalf("line %d: decoded %+v, want %+v", i, got, want[i])
		}
	}
}
