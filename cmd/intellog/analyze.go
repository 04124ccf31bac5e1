package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"intellog/internal/analytics"
)

// cmdAnalyze runs the offline analytics pass: detect anomalies in a log
// set, cluster the near-duplicates, localize each cluster's root cause
// on the HW-graph, and roll counts up into SLO windows — the batch
// counterpart of intellogd's /v1/anomalies/clusters and /v1/rollups.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	framework := fs.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
	logs := fs.String("logs", "", "directory of session logs to analyze")
	aggregated := fs.String("aggregated", "", "single aggregated log file (sessionized by container ID)")
	model := fs.String("model", "model.json", "trained model file")
	threshold := fs.Float64("threshold", 0, "cluster cosine similarity threshold (0 = default 0.60)")
	window := fs.Duration("window", 0, "rollup bucket width (0 = default 1m)")
	budget := fs.Float64("budget", 0, "anomaly budget per window for burn-rate alerts (0 = default 10)")
	top := fs.Int("top", 20, "clusters to print (by anomaly count; <=0 all)")
	asJSON := fs.Bool("json", false, "dump the full snapshot as JSON")
	fs.Parse(args)
	cfg := analytics.Config{
		Threshold: *threshold,
		Window:    *window,
		Budget:    *budget,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	fw, err := parseFramework(*framework)
	if err != nil {
		return err
	}
	m, err := loadModel(*model)
	if err != nil {
		return err
	}
	sessions, err := loadInput(fw, *logs, *aggregated)
	if err != nil {
		return err
	}
	report := m.Detect(sessions)
	engine := analytics.NewEngine(cfg, m.Graph)
	engine.ObserveBatch(report.Anomalies)
	snap := engine.Snapshot()

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(snap)
	}

	fmt.Printf("analyzed %d sessions: %d anomalies, %d shapes, %d clusters\n",
		len(sessions), snap.Observed, snap.Shapes, len(snap.Clusters))

	// Biggest clusters first; ID breaks count ties so output is stable.
	clusters := append([]analytics.Cluster(nil), snap.Clusters...)
	for i := 1; i < len(clusters); i++ {
		for j := i; j > 0 && (clusters[j].Count > clusters[j-1].Count ||
			(clusters[j].Count == clusters[j-1].Count && clusters[j].ID < clusters[j-1].ID)); j-- {
			clusters[j], clusters[j-1] = clusters[j-1], clusters[j]
		}
	}
	shown := len(clusters)
	if *top > 0 && shown > *top {
		shown = *top
	}
	for _, c := range clusters[:shown] {
		fmt.Printf("\ncluster %d: %d anomalies, %d sessions, %d shapes\n", c.ID, c.Count, c.Sessions, c.Shapes)
		fmt.Printf("  label: %s\n", c.Label)
		if c.Sample != "" {
			fmt.Printf("  sample: %s\n", c.Sample)
		}
		if e := c.Explanation; e != nil {
			var hops []string
			for _, st := range e.Path {
				hops = append(hops, st.Group)
			}
			fmt.Printf("  root cause: %s (path %s)\n", e.RootCause, strings.Join(hops, " -> "))
		}
	}
	if shown < len(clusters) {
		fmt.Printf("\n(%d more clusters; raise -top or use -json)\n", len(clusters)-shown)
	}

	if len(snap.Rollup.Buckets) > 0 {
		fmt.Printf("\nrollup (window %s, budget %g):\n", snap.Rollup.Window, snap.Rollup.Budget)
		for _, b := range snap.Rollup.Buckets {
			fmt.Printf("  %s  total=%d sessions=%d\n", b.Start.Format(time.RFC3339), b.Total, b.Sessions)
		}
		for _, a := range snap.Rollup.Alerts {
			state := "ok"
			if a.Firing {
				state = "FIRING"
			}
			fmt.Printf("  alert %s: burn=%.2f threshold=%.2f %s\n", a.Name, a.BurnRate, a.Threshold, state)
		}
	}
	return nil
}
