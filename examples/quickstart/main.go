// Quickstart: simulate a small Spark cluster, train IntelLog on clean
// runs, then detect an injected SIGKILL. This is the end-to-end flow of
// Fig. 2 in ~40 lines.
package main

import (
	"fmt"
	"io"
	"os"

	"intellog/internal/core"
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
	// A 8-node simulated YARN cluster and a HiBench-style job generator.
	cluster := sim.NewCluster(8, 42)
	gen := workload.NewGenerator(cluster, 43)

	// Train on clean runs (the paper trains on successful jobs only).
	training := gen.TrainingCorpus(logging.Spark, 10)
	model := core.Train(training, core.Config{})
	fmt.Fprintf(w, "trained on %d sessions: %d Intel Keys, %d entity groups\n",
		len(training), len(model.Keys), len(model.Graph.Nodes))

	// Inject a SIGKILL into one container of a new job and detect.
	job := gen.Submit(logging.Spark, sim.FaultKill)
	report := model.Detect(job.Sessions)
	fmt.Fprintf(w, "\njob %q: %d sessions, %d problematic\n",
		job.Spec.Name, len(job.Sessions), len(report.ProblematicSessions()))
	for _, a := range report.Anomalies {
		fmt.Fprintf(w, "  [%s] %s: %s\n", a.Session, a.Kind, a.Detail)
	}

	// Ground truth for comparison.
	fmt.Fprintln(w, "\nground truth (sessions the fault touched):")
	for sid := range job.Affected {
		fmt.Fprintf(w, "  %s\n", sid)
	}
	return nil
}
