package intellog

// End-to-end throughput benchmarks for the fast matching layer: Spell key
// extraction over a realistic training corpus and streaming anomaly
// detection over the same record stream. Both report logs/sec so runs are
// directly comparable across commits:
//
//	go test -bench Throughput -benchmem .
//
// Setting INTELLOG_BENCH_JSON=BENCH_spell.json additionally merges each
// bench's headline numbers into that JSON file (one object per benchmark),
// which scripts/check.sh uses to archive before/after evidence.

import (
	"os"
	"testing"

	"intellog/internal/benchjson"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// writeBenchJSON merges one benchmark's metrics into the JSON archive
// named by INTELLOG_BENCH_JSON (no-op when unset). The conformance
// detection benchmarks archive to INTELLOG_BENCH_DETECT_JSON with the
// same schema (see internal/conformance).
func writeBenchJSON(b *testing.B, name string, metrics map[string]float64) {
	if err := benchjson.Merge(os.Getenv("INTELLOG_BENCH_JSON"), name, metrics); err != nil {
		b.Fatal(err)
	}
}

// throughputRecords flattens a framework's training sessions into one
// record stream, in session order.
func throughputRecords(fw logging.Framework) []logging.Record {
	var recs []logging.Record
	for _, s := range benchEnvironment().Training(fw) {
		recs = append(recs, s.Records...)
	}
	return recs
}

// BenchmarkSpellThroughput measures raw Spell training throughput: every
// record of the Spark corpus tokenized up front, then consumed into a
// fresh parser per iteration (the cold-start path that dominates Train).
func BenchmarkSpellThroughput(b *testing.B) {
	recs := throughputRecords(logging.Spark)
	tokens := make([][]string, len(recs))
	for i, r := range recs {
		tokens[i] = nlp.Texts(nlp.Tokenize(r.Message))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := spell.NewParser(0)
		for _, t := range tokens {
			p.Consume(t)
		}
		if len(p.Keys()) == 0 {
			b.Fatal("no keys extracted")
		}
	}
	logsPerSec := float64(len(tokens)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(logsPerSec, "logs/sec")
	writeBenchJSON(b, "BenchmarkSpellThroughput", map[string]float64{
		"logs_per_sec": logsPerSec,
		"logs_per_op":  float64(len(tokens)),
	})
}

// BenchmarkStreamDetectThroughput measures steady-state streaming
// detection: a trained model's detector (with its shared lookup cache)
// consuming the full Spark record stream one record at a time.
func BenchmarkStreamDetectThroughput(b *testing.B) {
	m := benchEnvironment().Model(logging.Spark)
	recs := throughputRecords(logging.Spark)
	d := m.Detector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd := detect.NewStream(d, detect.StreamConfig{})
		for _, r := range recs {
			sd.Consume(r)
		}
		sd.Flush()
	}
	logsPerSec := float64(len(recs)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(logsPerSec, "logs/sec")
	writeBenchJSON(b, "BenchmarkStreamDetectThroughput", map[string]float64{
		"logs_per_sec": logsPerSec,
		"logs_per_op":  float64(len(recs)),
	})
}
