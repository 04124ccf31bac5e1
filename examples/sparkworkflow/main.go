// Sparkworkflow reconstructs and prints the Spark HW-graph of Fig. 8 —
// the hierarchical entity groups, their subroutines with critical Intel
// Keys, and the extracted operations — and contrasts it with the
// identifier-only S³ graph Stitch would build (Fig. 9).
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"intellog/internal/baselines/stitch"
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
	cluster := sim.NewCluster(26, 7)
	gen := workload.NewGenerator(cluster, 8)
	model := core.Train(gen.TrainingCorpus(logging.Spark, 15), core.Config{})

	fmt.Fprintln(w, "=== Spark HW-graph (hierarchy; * marks critical groups) ===")
	fmt.Fprint(w, model.Graph.Render())

	fmt.Fprintln(w, "\n=== subroutines of the critical groups ===")
	for _, name := range model.Graph.CriticalGroups() {
		node := model.Graph.Nodes[name]
		sigs := make([]string, 0, len(node.Subroutines))
		for sig := range node.Subroutines {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			sub := node.Subroutines[sig]
			label := sig
			if label == "" {
				label = "NONE"
			}
			fmt.Fprintf(w, "%s / %s:\n", name, label)
			for _, kid := range sub.Keys {
				ik := model.Keys[kid]
				marker := " "
				if sub.Critical[kid] {
					marker = "*"
				}
				ops := ""
				for _, op := range ik.Operations {
					ops += " " + op.String()
				}
				fmt.Fprintf(w, "  %s %s  ->%s\n", marker, ik.String(), ops)
			}
		}
	}

	// The Stitch comparison: identifiers only, no semantics (§6.3).
	fmt.Fprintln(w, "\n=== Stitch S3 graph of the same logs (identifier relations only) ===")
	job := gen.Submit(logging.Spark, sim.FaultNone)
	fmt.Fprint(w, stitch.Build(model.Messages(job.Sessions)).Render())
	fmt.Fprintln(w, "\nNote: the S3 graph names identifier types only; the HW-graph above")
	fmt.Fprintln(w, "additionally carries entities, operations and critical-key subroutines.")
	return nil
}
