// Mlmonitor demonstrates the paper's §9 future work: IntelLog applied,
// unchanged, to a distributed machine-learning system (TensorFlow with
// parameter servers and workers). It reconstructs the training workflow,
// detects a parameter-server connectivity failure, and uses the Intel
// Message store's time-series projection to follow the training loss —
// the "metrics values" facet of Intel Messages (§3.3).
package main

import (
	"fmt"
	"io"
	"os"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/intelstore"
	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	cluster := sim.NewCluster(16, 31)
	gen := workload.NewGenerator(cluster, 32)

	model := core.Train(gen.TrainingCorpus(logging.TensorFlow, 10), core.Config{})
	fmt.Fprintf(w, "trained on distributed-TF logs: %d Intel Keys, %d entity groups\n",
		len(model.Keys), len(model.Graph.Nodes))
	fmt.Fprintln(w, "\ntraining workflow (HW-graph):")
	fmt.Fprint(w, model.Graph.Render())

	// A healthy run: follow the loss series via the Intel Message store.
	run := gen.Submit(logging.TensorFlow, sim.FaultNone)
	store := intelstore.New(model.Messages(run.Sessions))
	series := store.Series("")
	stats := store.Stats("")
	fmt.Fprintf(w, "\nloss series across %d workers: %d points, min=%.3f max=%.3f mean=%.3f\n",
		len(run.Sessions), len(series), stats.Min, stats.Max, stats.Mean)

	// A run whose workers intermittently lose a parameter server.
	bad := gen.Submit(logging.TensorFlow, sim.FaultNetwork)
	report := model.Detect(bad.Sessions)
	fmt.Fprintf(w, "\nfaulty run: %d/%d sessions problematic\n",
		len(report.ProblematicSessions()), len(bad.Sessions))
	addrs := map[string]bool{}
	for _, a := range report.ByKind(detect.UnexpectedMessage) {
		if a.Extracted == nil {
			continue
		}
		for _, addr := range a.Extracted.Localities["ADDR"] {
			addrs[addr] = true
		}
	}
	fmt.Fprintf(w, "unreachable parameter-server addresses named by the failures: %v\n", keys(addrs))
	return nil
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
