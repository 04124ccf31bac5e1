package core_test

import (
	"testing"

	"intellog/internal/conformance"
	"intellog/internal/core"
	"intellog/internal/logging"
)

// BenchmarkTrain measures core.Train end to end — Spell, Intel Keys,
// Algorithm 1 grouping and the Algorithm 2 fold into the HW-graph — over
// the oracle's reference training corpora: the in-process counterpart of
// bench/'s core.train_ms.
func BenchmarkTrain(b *testing.B) {
	for _, fw := range []logging.Framework{logging.Spark, logging.HDFS} {
		b.Run(string(fw), func(b *testing.B) {
			sessions := conformance.TrainingSessions(fw)
			records := 0
			for _, s := range sessions {
				records += len(s.Records)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Train(sessions, core.Config{})
			}
			b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
