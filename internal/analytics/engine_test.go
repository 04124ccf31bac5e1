package analytics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"intellog/internal/detect"
	"intellog/internal/hwgraph"
)

func testGraph() *hwgraph.Graph {
	return &hwgraph.Graph{
		Nodes: map[string]*hwgraph.Node{
			"driver":   {Name: "driver", Children: []string{"executor"}},
			"executor": {Name: "executor", Children: []string{"task", "shuffle"}},
			"task":     {Name: "task", Next: []string{"shuffle"}},
			"shuffle":  {Name: "shuffle"},
		},
		Roots:         []string{"driver"},
		TotalSessions: 3,
	}
}

// testAnomalies builds a mixed workload: two recurring fault templates
// across many sessions, plus a scattering of distinct findings.
func testAnomalies() []detect.Anomaly {
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	var as []detect.Anomaly
	for i := 0; i < 40; i++ {
		ses := "app_" + strconv.Itoa(i%7)
		as = append(as, detect.Anomaly{
			At: base.Add(time.Duration(i) * 9 * time.Second), Session: ses,
			Kind: detect.MissingCriticalKeys, Group: "task", Signature: "sig-a",
			MissingKeys: []int{3, 7},
			Detail:      "subroutine missed keys in " + ses,
		})
	}
	for i := 0; i < 25; i++ {
		ses := "app_" + strconv.Itoa(i%5)
		as = append(as, detect.Anomaly{
			At: base.Add(time.Duration(i) * 13 * time.Second), Session: ses,
			Kind: detect.OrderViolation, Group: "shuffle", Signature: "sig-b",
			Pairs:  [][2]int{{1, 2}},
			Detail: "order broke in " + ses,
		})
	}
	for i := 0; i < 10; i++ {
		as = append(as, detect.Anomaly{
			At: base.Add(time.Duration(i) * time.Minute), Session: "app_solo",
			Kind: detect.MissingGroup, Group: "grp_" + strconv.Itoa(i),
			Detail: "group absent " + strconv.Itoa(i),
		})
	}
	return as
}

func snapshotJSON(t *testing.T, e *Engine) []byte {
	t.Helper()
	b, err := json.MarshalIndent(e.Snapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOrderIndependence is the engine's central contract: any feed
// order of the same anomaly multiset yields a byte-identical snapshot.
func TestOrderIndependence(t *testing.T) {
	as := testAnomalies()
	ref := NewEngine(Config{}, testGraph())
	ref.ObserveBatch(as)
	want := snapshotJSON(t, ref)

	for seed := int64(1); seed <= 5; seed++ {
		shuffled := append([]detect.Anomaly(nil), as...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		e := NewEngine(Config{}, testGraph())
		// Mix batch and one-at-a-time feeds too.
		for i := 0; i < len(shuffled); {
			if i%3 == 0 {
				end := i + 5
				if end > len(shuffled) {
					end = len(shuffled)
				}
				e.ObserveBatch(shuffled[i:end])
				i = end
			} else {
				e.Observe(&shuffled[i])
				i++
			}
		}
		if got := snapshotJSON(t, e); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: snapshot differs from reference\ngot:\n%s\nwant:\n%s", seed, got, want)
		}
	}
}

// TestStateRoundTrip: checkpoint mid-feed, restore, finish the feed —
// identical to the uninterrupted engine.
func TestStateRoundTrip(t *testing.T) {
	as := testAnomalies()
	ref := NewEngine(Config{}, testGraph())
	ref.ObserveBatch(as)
	want := snapshotJSON(t, ref)

	for _, cut := range []int{0, 1, len(as) / 3, len(as) / 2, len(as) - 1, len(as)} {
		e := NewEngine(Config{}, testGraph())
		e.ObserveBatch(as[:cut])
		raw, err := e.StateJSON()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreJSON(Config{}, testGraph(), raw)
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		restored.ObserveBatch(as[cut:])
		if got := snapshotJSON(t, restored); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: snapshot differs after restore\ngot:\n%s\nwant:\n%s", cut, got, want)
		}
	}
}

func TestClustersAggregateDuplicates(t *testing.T) {
	e := NewEngine(Config{}, testGraph())
	as := testAnomalies()
	e.ObserveBatch(as)
	snap := e.Snapshot()

	if snap.Observed != uint64(len(as)) {
		t.Fatalf("observed = %d, want %d", snap.Observed, len(as))
	}
	// The 40 repeated missing-keys findings share one shape; find its
	// cluster and check aggregation.
	var taskCluster *Cluster
	for i := range snap.Clusters {
		c := &snap.Clusters[i]
		if c.Kinds["missing-critical-keys"] > 0 {
			taskCluster = c
			break
		}
	}
	if taskCluster == nil {
		t.Fatalf("no missing-critical-keys cluster in %d clusters", len(snap.Clusters))
	}
	if taskCluster.Count < 40 {
		t.Fatalf("task cluster count = %d, want ≥ 40", taskCluster.Count)
	}
	if taskCluster.Sessions != 7 {
		t.Fatalf("task cluster sessions = %d, want 7", taskCluster.Sessions)
	}
	if taskCluster.Explanation == nil || len(taskCluster.Explanation.Path) == 0 {
		t.Fatalf("task cluster has no explanation path")
	}
	if len(snap.Clusters) >= len(as) {
		t.Fatalf("clustering aggregated nothing: %d clusters for %d anomalies", len(snap.Clusters), len(as))
	}
}

func TestExplainWalksToRootCause(t *testing.T) {
	e := NewEngine(Config{}, testGraph())
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	// task deviates first, then shuffle errs in the same session: the
	// walk from shuffle must localize task as root cause.
	as := []detect.Anomaly{
		{At: base, Session: "s1", Kind: detect.MissingCriticalKeys, Group: "task", Signature: "a", Detail: "d1"},
		{At: base.Add(time.Second), Session: "s1", Kind: detect.OrderViolation, Group: "shuffle", Signature: "b", Detail: "d2"},
	}
	e.ObserveBatch(as)

	got := e.Explain(&as[1])
	if got.ClusterID == 0 || got.ClusterLabel == "" {
		t.Fatalf("no cluster identity: %+v", got)
	}
	if got.Explanation == nil || got.Explanation.RootCause != "task" {
		t.Fatalf("root cause = %+v, want task", got.Explanation)
	}
	wantPath := []string{"task", "shuffle"}
	if len(got.Explanation.Path) != len(wantPath) {
		t.Fatalf("path = %+v, want %v", got.Explanation.Path, wantPath)
	}
	for i, step := range got.Explanation.Path {
		if step.Group != wantPath[i] {
			t.Fatalf("path[%d] = %q, want %q", i, step.Group, wantPath[i])
		}
	}
}

func TestRollupBucketsAndAlerts(t *testing.T) {
	cfg := Config{Window: time.Minute, Budget: 2}
	e := NewEngine(cfg, testGraph())
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	// 30 anomalies inside the newest window: burn 30/2 = 15 ≥ 14 fast
	// threshold; slow-burn over 6 windows: 30/(6*2) = 2.5 < 6.
	var as []detect.Anomaly
	for i := 0; i < 30; i++ {
		as = append(as, detect.Anomaly{
			At: base.Add(time.Duration(i) * time.Second), Session: "s",
			Kind: detect.OrderViolation, Group: "task", Detail: "d",
		})
	}
	// And a quiet older window.
	as = append(as, detect.Anomaly{
		At: base.Add(-10 * time.Minute), Session: "s2",
		Kind: detect.MissingGroup, Group: "task", Detail: "old",
	})
	e.ObserveBatch(as)

	snap := e.Snapshot()
	if len(snap.Rollup.Buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(snap.Rollup.Buckets))
	}
	newest := snap.Rollup.Buckets[1]
	if newest.Total != 30 || newest.Sessions != 1 {
		t.Fatalf("newest bucket = %+v", newest)
	}
	var fast, slow *Alert
	for i := range snap.Rollup.Alerts {
		switch snap.Rollup.Alerts[i].Name {
		case "fast-burn":
			fast = &snap.Rollup.Alerts[i]
		case "slow-burn":
			slow = &snap.Rollup.Alerts[i]
		}
	}
	if fast == nil || !fast.Firing || fast.BurnRate != 15 {
		t.Fatalf("fast-burn = %+v, want firing at 15", fast)
	}
	if slow == nil || slow.Firing {
		t.Fatalf("slow-burn = %+v, want not firing", slow)
	}
}

// TestBucketHorizon: anomalies older than MaxBuckets windows behind the
// newest are dropped identically whether they arrive early or late.
func TestBucketHorizon(t *testing.T) {
	cfg := Config{Window: time.Minute, MaxBuckets: 3}
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	old := detect.Anomaly{At: base.Add(-time.Hour), Session: "s", Kind: detect.MissingGroup, Group: "g", Detail: "old"}
	fresh := detect.Anomaly{At: base, Session: "s", Kind: detect.MissingGroup, Group: "g", Detail: "new"}

	early := NewEngine(cfg, nil)
	early.Observe(&old)
	early.Observe(&fresh)
	late := NewEngine(cfg, nil)
	late.Observe(&fresh)
	late.Observe(&old)

	a := snapshotJSON(t, early)
	b := snapshotJSON(t, late)
	if !bytes.Equal(a, b) {
		t.Fatalf("horizon not order-independent:\n%s\nvs\n%s", a, b)
	}
	if n := len(early.Snapshot().Rollup.Buckets); n != 1 {
		t.Fatalf("buckets = %d, want 1 (old window beyond horizon)", n)
	}
}

func TestStatsAndMetricsView(t *testing.T) {
	e := NewEngine(Config{}, testGraph())
	e.ObserveBatch(testAnomalies())
	e.Snapshot() // computes explanations
	st := e.Stats()
	if st.Observed == 0 || st.Shapes == 0 || st.Clusters == 0 || st.TrackedSessions == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.Localizations == 0 {
		t.Fatalf("no localizations counted: %+v", st)
	}
}

// TestConfigValidate: non-finite settings and a budget small enough to
// overflow a burn rate are refused; zero and negative values still
// select the defaults.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Budget: math.NaN()}, {Budget: math.Inf(1)}, {Budget: math.Inf(-1)}, {Budget: 1e-300},
		{Threshold: math.NaN()}, {Threshold: math.Inf(1)},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%+v: accepted", c)
		}
	}
	good := []Config{{}, {Budget: -1}, {Budget: 1e-3}, {Budget: math.MaxFloat64}, {Threshold: 0.9}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}
