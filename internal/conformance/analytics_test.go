package conformance

import (
	"bytes"
	"encoding/json"
	"testing"

	"intellog/internal/analytics"
	"intellog/internal/detect"
)

// The analytics layer inherits the differential oracle's contract: the
// engine's snapshot must be a pure function of the anomaly multiset, so
// feeding it any execution path's report — batch, sharded streaming,
// chunked streaming, or a kill/resume run — must produce byte-identical
// clusters, explanations and rollups.

// analyticsSnapshot feeds one report into a fresh engine and renders
// the canonical snapshot bytes.
func analyticsSnapshot(t *testing.T, c *Corpus, rep *detect.Report) []byte {
	t.Helper()
	m := ModelFor(c.Spec.Framework)
	e := analytics.NewEngine(analytics.Config{}, m.Graph)
	e.ObserveBatch(rep.Anomalies)
	out, err := json.MarshalIndent(e.Snapshot(), "", " ")
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return out
}

// TestAnalyticsDeterminism proves snapshot byte-identity across every
// execution path of every corpus in the matrix, plus a mid-feed
// checkpoint/restore of the engine itself.
func TestAnalyticsDeterminism(t *testing.T) {
	for _, sp := range DefaultMatrix() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			c := corpusFor(sp)
			m := ModelFor(sp.Framework)

			ref := analyticsSnapshot(t, c, BatchPath(m.Detector(), c.Records))
			paths := map[string]*detect.Report{
				"stream":         StreamPath(m.Detector(), c.Records),
				"stream-batched": StreamBatchPath(m.Detector(), c.Records, 64, 4),
			}
			resume, err := ResumePath(m, c.Records, len(c.Records)/2)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			paths["resume"] = resume
			for name, rep := range paths {
				if got := analyticsSnapshot(t, c, rep); !bytes.Equal(got, ref) {
					t.Errorf("%s snapshot diverges from batch (%d vs %d bytes)", name, len(got), len(ref))
				}
			}

			// Kill the engine mid-feed, restore from its serialized state,
			// finish the feed: same bytes as the straight-through run.
			rep := BatchPath(m.Detector(), c.Records)
			cut := len(rep.Anomalies) / 2
			first := analytics.NewEngine(analytics.Config{}, m.Graph)
			first.ObserveBatch(rep.Anomalies[:cut])
			blob, err := first.StateJSON()
			if err != nil {
				t.Fatalf("state: %v", err)
			}
			second, err := analytics.RestoreJSON(analytics.Config{}, m.Graph, blob)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			second.ObserveBatch(rep.Anomalies[cut:])
			got, err := json.MarshalIndent(second.Snapshot(), "", " ")
			if err != nil {
				t.Fatalf("marshal snapshot: %v", err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("restored-engine snapshot diverges from straight-through run")
			}
		})
	}
}

// TestAnalyticsGroundTruth checks the clustering against the
// simulator's fault annotations on three faulted corpora: the anomalies
// from truth-affected sessions must concentrate in one dominant cluster,
// and that cluster's explanation must walk through a group the faulted
// sessions actually implicated.
func TestAnalyticsGroundTruth(t *testing.T) {
	for _, name := range []string{"spark-faulted", "flink-faulted", "hdfs-faulted"} {
		var spec *Spec
		for _, sp := range DefaultMatrix() {
			if sp.Name == name {
				sp := sp
				spec = &sp
				break
			}
		}
		if spec == nil {
			t.Fatalf("corpus %s missing from matrix", name)
		}
		t.Run(name, func(t *testing.T) {
			c := corpusFor(*spec)
			m := ModelFor(spec.Framework)
			rep := BatchPath(m.Detector(), c.Records)
			e := analytics.NewEngine(analytics.Config{}, m.Graph)
			e.ObserveBatch(rep.Anomalies)

			// Count truth-session anomalies per cluster, and collect the
			// groups those anomalies implicate — the faulting subroutines.
			byCluster := map[uint64]int{}
			faultGroups := map[string]bool{}
			total := 0
			for i := range rep.Anomalies {
				a := &rep.Anomalies[i]
				if !c.Truth[a.Session] {
					continue
				}
				total++
				if a.Group != "" {
					faultGroups[a.Group] = true
				}
				if ae := e.Explain(a); ae.ClusterID != 0 {
					byCluster[ae.ClusterID]++
				}
			}
			if total == 0 {
				t.Fatalf("no anomalies in truth-affected sessions")
			}
			// Each of these corpora cycles through two injected fault
			// kinds, and each kind concentrates in its own dominant
			// cluster: the top cluster must hold a quarter of the truth
			// anomalies on its own and the top two a majority together.
			var domID, secondID uint64
			dom, second := 0, 0
			for id, n := range byCluster {
				switch {
				case n > dom || (n == dom && id < domID):
					secondID, second = domID, dom
					domID, dom = id, n
				case n > second || (n == second && id < secondID):
					secondID, second = id, n
				}
			}
			if share := float64(dom) / float64(total); share < 0.25 {
				t.Fatalf("dominant cluster holds %d/%d truth anomalies (share %.2f < 0.25)", dom, total, share)
			}
			if share := float64(dom+second) / float64(total); share < 0.5 {
				t.Fatalf("top two clusters hold %d/%d truth anomalies (share %.2f < 0.5)", dom+second, total, share)
			}

			var cluster *analytics.Cluster
			for _, cl := range e.Snapshot().Clusters {
				if cl.ID == domID {
					cl := cl
					cluster = &cl
					break
				}
			}
			if cluster == nil {
				t.Fatalf("dominant cluster %d missing from snapshot", domID)
			}
			if cluster.Explanation == nil || len(cluster.Explanation.Path) == 0 {
				t.Fatalf("dominant cluster has no explanation path")
			}
			onPath := false
			for _, step := range cluster.Explanation.Path {
				if faultGroups[step.Group] {
					onPath = true
					break
				}
			}
			if !onPath {
				t.Errorf("explanation path %v misses every faulted group %v",
					cluster.Explanation.Path, sortedGroups(faultGroups))
			}
		})
	}
}

func sortedGroups(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// BenchmarkClusterIngest measures the analytics engine's ingest +
// snapshot rate over the bench corpus's anomalies. logs_per_sec is the
// record-stream-equivalent rate (corpus records per second of
// clustering work), directly comparable to the detect benches: the
// engine keeps up with emission as long as it stays above their
// logs/sec.
func BenchmarkClusterIngest(b *testing.B) {
	c, d := benchSetup(b)
	rep := BatchPath(d, c.Records)
	if len(rep.Anomalies) == 0 {
		b.Fatal("bench corpus produced no anomalies")
	}
	graph := ModelFor(c.Spec.Framework).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := analytics.NewEngine(analytics.Config{}, graph)
		e.ObserveBatch(rep.Anomalies)
		if snap := e.Snapshot(); len(snap.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
	sec := b.Elapsed().Seconds()
	anomaliesPerSec := float64(len(rep.Anomalies)*b.N) / sec
	logsPerSec := float64(len(c.Records)*b.N) / sec
	b.ReportMetric(anomaliesPerSec, "anomalies/sec")
	b.ReportMetric(logsPerSec, "logs/sec")
	writeDetectBenchJSON(b, "BenchmarkClusterIngest", map[string]float64{
		"logs_per_sec":      logsPerSec,
		"anomalies_per_sec": anomaliesPerSec,
		"anomalies_per_op":  float64(len(rep.Anomalies)),
	})
}
