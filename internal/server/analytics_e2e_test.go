package server_test

import (
	"strings"
	"testing"

	"intellog/internal/conformance"
	"intellog/internal/server"
)

// TestServeAnalyticsEndpoints exercises the analytics surface end to
// end: ingest a faulted corpus over HTTP, then read clusters (with
// cursor pagination), per-anomaly explanations, rollups, and the new
// /metrics gauges.
func TestServeAnalyticsEndpoints(t *testing.T) {
	spec := conformance.DefaultMatrix()[1] // spark-faulted
	_, c := runServeLeg(t, serveLeg{wire: ndjson, conns: 1, batch: 64, workers: 1}, spec, server.CorpusFor(spec))

	full, err := c.Clusters(0, 0)
	if err != nil {
		t.Fatalf("clusters: %v", err)
	}
	if len(full.Clusters) == 0 || full.Observed == 0 {
		t.Fatalf("faulted corpus produced no clusters: %+v", full)
	}
	explained := 0
	for _, cl := range full.Clusters {
		if cl.Count == 0 || cl.Label == "" {
			t.Fatalf("malformed cluster %+v", cl)
		}
		if cl.Explanation != nil {
			explained++
			if cl.Explanation.RootCause == "" || len(cl.Explanation.Path) == 0 {
				t.Fatalf("cluster %d explanation lacks a root-cause path: %+v", cl.ID, cl.Explanation)
			}
		}
	}
	if explained == 0 {
		t.Fatal("no cluster carries a root-cause explanation")
	}

	// Page through at limit 1: the walk must reassemble the full list.
	var walked []uint64
	var since uint64
	for {
		page, err := c.Clusters(since, 1)
		if err != nil {
			t.Fatalf("clusters page: %v", err)
		}
		if len(page.Clusters) == 0 {
			break
		}
		walked = append(walked, page.Clusters[0].ID)
		if page.Next == since {
			break
		}
		since = page.Next
	}
	if len(walked) != len(full.Clusters) {
		t.Fatalf("pagination walk found %d clusters, full listing has %d", len(walked), len(full.Clusters))
	}
	for i, id := range walked {
		if id != full.Clusters[i].ID {
			t.Fatalf("pagination walk diverges at %d: %d != %d", i, id, full.Clusters[i].ID)
		}
	}

	rollups, err := c.Rollups(0, 0)
	if err != nil {
		t.Fatalf("rollups: %v", err)
	}
	if len(rollups.Buckets) == 0 {
		t.Fatal("no rollup buckets for a corpus with anomalies")
	}
	if rollups.Window != "1m0s" || rollups.Budget != 10 {
		t.Fatalf("rollup defaults = window %s budget %g, want 1m0s / 10", rollups.Window, rollups.Budget)
	}
	var counted uint64
	for _, b := range rollups.Buckets {
		counted += b.Total
	}
	if counted != full.Observed {
		t.Fatalf("rollup buckets count %d anomalies, engine observed %d", counted, full.Observed)
	}

	// Explain a retained grouped anomaly; a seq past the log is a 404.
	page, err := c.Anomalies(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Anomalies) == 0 {
		t.Fatal("no anomalies retained")
	}
	var seq uint64
	var found bool
	for _, a := range page.Anomalies {
		if a.Anomaly.Group != "" {
			seq, found = a.Seq, true
			break
		}
	}
	if !found {
		t.Fatal("no grouped anomaly to explain")
	}
	expl, err := c.Explain(seq)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if expl.Seq != seq || expl.ClusterID == 0 || expl.ClusterLabel == "" {
		t.Fatalf("explain(%d) lacks cluster identity: %+v", seq, expl)
	}
	if expl.Explanation == nil || expl.Explanation.RootCause == "" || len(expl.Explanation.Path) == 0 {
		t.Fatalf("explain(%d) lacks a root-cause path: %+v", seq, expl.Explanation)
	}
	if _, err := c.Explain(page.Next + 100000); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("explain of unretained seq = %v, want a 404", err)
	}

	// The analytics gauges surface on /metrics.
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"intellogd_analytics_anomalies_observed_total",
		"intellogd_analytics_clusters",
		"intellogd_analytics_rollup_buckets",
		"intellogd_analytics_localizations_total",
		"intellogd_analytics_alerts_firing",
		"intellogd_anomaly_log_trimmed_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if got := server.ScrapeValue(t, c.Base, `intellogd_analytics_rollup_buckets{tenant="acme"}`); got != float64(len(rollups.Buckets)) {
		t.Errorf("intellogd_analytics_rollup_buckets = %v, /v1/rollups serves %d windows", got, len(rollups.Buckets))
	}
}
