package conformance

import (
	"os"
	"runtime"
	"testing"

	"intellog/internal/benchjson"
	"intellog/internal/detect"
	"intellog/internal/logging"
)

// Detection throughput over a real conformance corpus, archived with the
// same schema as the spell/throughput suite: setting
// INTELLOG_BENCH_DETECT_JSON=BENCH_detect.json merges each bench's
// headline numbers into that file, keeping the detection perf trajectory
// machine-readable alongside BENCH_spell.json.

func writeDetectBenchJSON(b *testing.B, name string, metrics map[string]float64) {
	if err := benchjson.Merge(os.Getenv("INTELLOG_BENCH_DETECT_JSON"), name, metrics); err != nil {
		b.Fatal(err)
	}
}

// allocCounter snapshots the runtime's cumulative malloc count so a
// bench can archive allocs-per-record alongside logs/sec — the number
// the pooled batch path exists to push down, guarded lower-is-better by
// scripts/bench_compare.sh.
type allocCounter struct{ start uint64 }

func startAllocCount() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{start: ms.Mallocs}
}

func (a allocCounter) perRecord(records int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if records <= 0 {
		return 0
	}
	return float64(ms.Mallocs-a.start) / float64(records)
}

// benchCorpus is the largest clean-ish corpus of the matrix, generated
// once per bench process.
var benchCorpus *Corpus

func benchSetup(b *testing.B) (*Corpus, *detect.Detector) {
	if benchCorpus == nil {
		benchCorpus = DefaultMatrix()[4].Generate() // spark-large-mixed
	}
	return benchCorpus, ModelFor(logging.Spark).Detector()
}

// BenchmarkConformanceBatchDetect measures batch detection throughput
// over the corpus's session view.
func BenchmarkConformanceBatchDetect(b *testing.B) {
	c, d := benchSetup(b)
	sessions := c.Sessions()
	b.ReportAllocs()
	b.ResetTimer()
	ac := startAllocCount()
	for i := 0; i < b.N; i++ {
		if rep := d.DetectParallel(sessions, 0); rep.Sessions != len(sessions) {
			b.Fatalf("report covers %d sessions, want %d", rep.Sessions, len(sessions))
		}
	}
	allocsPerRecord := ac.perRecord(len(c.Records) * b.N)
	logsPerSec := float64(len(c.Records)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(logsPerSec, "logs/sec")
	writeDetectBenchJSON(b, "BenchmarkConformanceBatchDetect", map[string]float64{
		"logs_per_sec":      logsPerSec,
		"logs_per_op":       float64(len(c.Records)),
		"allocs_per_record": allocsPerRecord,
	})
}

// benchMatrixCorpora are the new-framework corpora of the matrix, each
// detected with its own framework's model — the breadth counterpart to
// the spark-only benches above.
var benchMatrixCorpora []*Corpus

// BenchmarkConformanceBatchDetectMatrix measures batch detection across
// the matrix's new-framework corpora (TensorFlow, Flink, HDFS, YARN RM),
// one DetectParallel per corpus per iteration.
func BenchmarkConformanceBatchDetectMatrix(b *testing.B) {
	if benchMatrixCorpora == nil {
		m := DefaultMatrix()
		for _, sp := range m[7:11] { // tensorflow-faulted … yarnrm-failover
			benchMatrixCorpora = append(benchMatrixCorpora, sp.Generate())
		}
	}
	type unit struct {
		sessions []*logging.Session
		d        *detect.Detector
	}
	var units []unit
	records := 0
	for _, c := range benchMatrixCorpora {
		units = append(units, unit{c.Sessions(), ModelFor(c.Spec.Framework).Detector()})
		records += len(c.Records)
	}
	b.ReportAllocs()
	b.ResetTimer()
	ac := startAllocCount()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			if rep := u.d.DetectParallel(u.sessions, 0); rep.Sessions != len(u.sessions) {
				b.Fatalf("report covers %d sessions, want %d", rep.Sessions, len(u.sessions))
			}
		}
	}
	allocsPerRecord := ac.perRecord(records * b.N)
	logsPerSec := float64(records*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(logsPerSec, "logs/sec")
	writeDetectBenchJSON(b, "BenchmarkConformanceBatchDetectMatrix", map[string]float64{
		"logs_per_sec":      logsPerSec,
		"logs_per_op":       float64(records),
		"allocs_per_record": allocsPerRecord,
	})
}

// BenchmarkConformanceStreamDetect measures the streaming path
// over the same record stream, consumed one record at a time.
func BenchmarkConformanceStreamDetect(b *testing.B) {
	c, d := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	ac := startAllocCount()
	for i := 0; i < b.N; i++ {
		sd := detect.NewStream(d, detect.StreamConfig{})
		for _, r := range c.Records {
			sd.Consume(r)
		}
		sd.Flush()
	}
	allocsPerRecord := ac.perRecord(len(c.Records) * b.N)
	logsPerSec := float64(len(c.Records)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(logsPerSec, "logs/sec")
	writeDetectBenchJSON(b, "BenchmarkConformanceStreamDetect", map[string]float64{
		"logs_per_sec":      logsPerSec,
		"logs_per_op":       float64(len(c.Records)),
		"allocs_per_record": allocsPerRecord,
	})
}

// BenchmarkConformanceConsumeBatch measures the two-stage streaming path
// — parallel resolve, ordered apply — over the same record stream in
// 512-record batches: the path every served batch, WAL replay and the
// oracle's batched leg take.
func BenchmarkConformanceConsumeBatch(b *testing.B) {
	c, d := benchSetup(b)
	benchConsumeBatch(b, "BenchmarkConformanceConsumeBatch", d, c.Records, detect.StreamConfig{})
}

// BenchmarkConformanceConsumeBatchIdle is BenchmarkConformanceConsumeBatch
// with sessions ending mid-stream, as they do in serving: the corpus is
// replayed twice, the second copy shifted past 2 × the 5-minute idle
// timeout, so the replay's first record idles out every session of the
// first copy in one burst and the replay's own sessions close in Flush.
func BenchmarkConformanceConsumeBatchIdle(b *testing.B) {
	c, d := benchSetup(b)
	benchConsumeBatch(b, "BenchmarkConformanceConsumeBatchIdle", d, replayTwice(c.Records, burstIdle),
		detect.StreamConfig{IdleTimeout: burstIdle})
}

// benchConsumeBatch streams recs through a fresh StreamDetector in
// 512-record ConsumeBatch calls and a Flush per iteration, and archives
// the run under name.
func benchConsumeBatch(b *testing.B, name string, d *detect.Detector, recs []logging.Record, cfg detect.StreamConfig) {
	const batch = 512
	b.ReportAllocs()
	b.ResetTimer()
	ac := startAllocCount()
	for i := 0; i < b.N; i++ {
		sd := detect.NewStream(d, cfg)
		for rest := recs; len(rest) > 0; {
			n := min(batch, len(rest))
			sd.ConsumeBatch(rest[:n], 0)
			rest = rest[n:]
		}
		sd.Flush()
	}
	allocsPerRecord := ac.perRecord(len(recs) * b.N)
	logsPerSec := float64(len(recs)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(logsPerSec, "logs/sec")
	writeDetectBenchJSON(b, name, map[string]float64{
		"logs_per_sec":      logsPerSec,
		"logs_per_op":       float64(len(recs)),
		"allocs_per_record": allocsPerRecord,
	})
}
