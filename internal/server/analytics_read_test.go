package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"testing"

	"intellog/internal/analytics"
	"intellog/internal/conformance"
	"intellog/internal/server"
)

// bootReplayed boots a daemon, replays spec's corpus over ILS1 and
// flushes, so the tenant's analytics engine holds every finding.
func bootReplayed(t *testing.T, spec conformance.Spec) *life {
	t.Helper()
	modelDir := t.TempDir()
	writeModel(t, modelDir, "acme", spec.Framework)
	l := boot(t, server.Config{ModelDir: modelDir, DefaultFramework: spec.Framework, IngestWorkers: 4})
	l.replay(t, serveLeg{wire: ils1, conns: 3, batch: 48}, server.CorpusFor(spec))
	if _, err := l.c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return l
}

// getBody reads one analytics endpoint's raw body.
func getBody(t *testing.T, l *life, path string, since uint64, limit int) []byte {
	t.Helper()
	q := url.Values{"tenant": {"acme"}}
	if since != 0 {
		q.Set("since", strconv.FormatUint(since, 10))
	}
	if limit != 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	resp, err := http.Get(l.hs.URL + path + "?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: %d %q: %s", path, resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	return body
}

func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// clustersRef and rollupsRef build each endpoint's response from the
// full Snapshot, filtered to the page, and encode it as the handlers
// did when they read the snapshot themselves.
func clustersRef(t *testing.T, snap *analytics.Snapshot, since uint64, limit int) []byte {
	resp := server.ClustersResponse{Clusters: []analytics.Cluster{}, Next: since, Observed: snap.Observed, Shapes: snap.Shapes}
	for _, c := range snap.Clusters {
		if c.ID <= since {
			continue
		}
		if len(resp.Clusters) >= limit {
			break
		}
		resp.Clusters = append(resp.Clusters, c)
		resp.Next = c.ID
	}
	return encodeRef(t, resp)
}

func rollupsRef(t *testing.T, snap *analytics.Snapshot, since uint64, limit int) []byte {
	resp := server.RollupsResponse{
		Window: snap.Rollup.Window, Budget: snap.Rollup.Budget,
		Buckets: []analytics.Bucket{}, Alerts: snap.Rollup.Alerts, Next: int64(since),
	}
	for _, b := range snap.Rollup.Buckets {
		start := b.Start.Unix()
		if since != 0 && start <= int64(since) {
			continue
		}
		if len(resp.Buckets) >= limit {
			break
		}
		resp.Buckets = append(resp.Buckets, b)
		resp.Next = start
	}
	return encodeRef(t, resp)
}

// TestAnalyticsReadBodiesMatchSnapshot: on every matrix corpus, the
// /v1/rollups and /v1/anomalies/clusters bodies — at the default limit,
// limit 1 and limit 3, from the start and from a mid-range cursor — are
// byte-identical to the response built from Engine.Snapshot. Each page
// is read twice, so the second read serves cached window encodings.
func TestAnalyticsReadBodiesMatchSnapshot(t *testing.T) {
	for _, spec := range conformance.DefaultMatrix() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			l := bootReplayed(t, spec)
			eng, err := l.srv.AnalyticsEngine("acme")
			if err != nil {
				t.Fatal(err)
			}
			snap := eng.Snapshot()
			var midCluster, midWindow uint64
			if n := len(snap.Clusters); n > 0 {
				midCluster = snap.Clusters[n/2].ID
			}
			if n := len(snap.Rollup.Buckets); n > 0 {
				midWindow = uint64(snap.Rollup.Buckets[n/2].Start.Unix())
			}
			t.Logf("%d clusters, %d windows", len(snap.Clusters), len(snap.Rollup.Buckets))
			for _, limit := range []int{0, 1, 3} {
				refLimit := limit
				if limit == 0 {
					refLimit = 1000 // the handlers' default page
				}
				for range 2 {
					for _, since := range []uint64{0, midCluster} {
						got := getBody(t, l, "/v1/anomalies/clusters", since, limit)
						if want := clustersRef(t, snap, since, refLimit); !bytes.Equal(got, want) {
							t.Fatalf("clusters since %d limit %d:\ngot:  %s\nwant: %s", since, limit, got, want)
						}
					}
					for _, since := range []uint64{0, midWindow} {
						got := getBody(t, l, "/v1/rollups", since, limit)
						if want := rollupsRef(t, snap, since, refLimit); !bytes.Equal(got, want) {
							t.Fatalf("rollups since %d limit %d:\ngot:  %s\nwant: %s", since, limit, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRollupsReadLeavesLocalizations: a /v1/rollups read builds no
// cluster, so it leaves the localization counter — the metric and the
// checkpointed State — where it was; a clusters read still localizes
// every cluster.
func TestRollupsReadLeavesLocalizations(t *testing.T) {
	l := bootReplayed(t, conformance.DefaultMatrix()[1]) // spark-faulted
	eng, err := l.srv.AnalyticsEngine("acme")
	if err != nil {
		t.Fatal(err)
	}
	const series = `intellogd_analytics_localizations_total{tenant="acme"}`
	before, state := server.ScrapeValue(t, l.hs.URL, series), eng.State().Localizations

	for _, limit := range []int{0, 1} {
		if _, err := l.c.Rollups(0, limit); err != nil {
			t.Fatalf("rollups: %v", err)
		}
	}
	if got := server.ScrapeValue(t, l.hs.URL, series); got != before {
		t.Fatalf("rollups reads moved %s from %v to %v", series, before, got)
	}
	if got := eng.State().Localizations; got != state {
		t.Fatalf("rollups reads moved State.Localizations from %d to %d", state, got)
	}

	cl, err := l.c.Clusters(0, 0)
	if err != nil {
		t.Fatalf("clusters: %v", err)
	}
	explained := 0
	for _, c := range cl.Clusters {
		if c.Explanation != nil {
			explained++
		}
	}
	if explained == 0 {
		t.Fatal("fixture has no explained cluster")
	}
	if got := server.ScrapeValue(t, l.hs.URL, series); got != before+float64(explained) {
		t.Fatalf("a clusters read moved %s from %v to %v, want +%d", series, before, got, explained)
	}
	if got := eng.State().Localizations; got != state+uint64(explained) {
		t.Fatalf("a clusters read moved State.Localizations from %d to %d, want +%d", state, got, explained)
	}
}

// TestNewRejectsNonFiniteBudget: a budget no JSON response can carry is
// refused when the daemon is configured, not on every rollups read.
func TestNewRejectsNonFiniteBudget(t *testing.T) {
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-300} {
		srv, err := server.New(server.Config{ModelDir: t.TempDir(), Analytics: analytics.Config{Budget: b}})
		if err == nil {
			srv.Close()
			t.Fatalf("budget %v: New accepted it", b)
		}
	}
}
