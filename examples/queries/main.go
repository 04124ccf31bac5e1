// Queries demonstrates the Intel Message store (§3.3): log messages become
// key-value records that can be filtered, grouped and exported as JSON —
// the structurized representation the paper stores in time-series
// databases.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"intellog/internal/core"
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
	cluster := sim.NewCluster(12, 21)
	gen := workload.NewGenerator(cluster, 22)
	model := core.Train(gen.TrainingCorpus(logging.Spark, 8), core.Config{})

	job := gen.Submit(logging.Spark, sim.FaultNone)
	store := intelstore.New(model.Messages(job.Sessions))
	fmt.Fprintf(w, "job %q produced %d Intel Messages in %d sessions\n\n",
		job.Spec.Name, store.Len(), len(store.Sessions()))

	// Query 1: everything the 'block' component did, per block manager.
	blocks := store.WithEntity("block manager")
	fmt.Fprintf(w, "messages about the block manager: %d\n", blocks.Len())

	// Query 2: task activity per session (the per-container task counts of
	// case study 3).
	fmt.Fprintln(w, "\ntask messages per session:")
	perSession := store.WithEntity("task").GroupBySession()
	ids := make([]string, 0, len(perSession))
	for id := range perSession {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  %s: %d\n", id, perSession[id].Len())
	}

	// Query 3: TID cardinality — how many distinct tasks ran?
	byTID := store.GroupByIdentifier("TID")
	fmt.Fprintf(w, "\ndistinct TIDs: %d\n", len(byTID))

	// Query 4: export one session's messages as JSON (truncated here).
	first := store.Sessions()[0]
	fmt.Fprintf(w, "\nJSON export of session %s (first 600 bytes):\n", first)
	return exportTruncated(w, store.WithSession(first))
}

// exportTruncated writes the first 600 bytes of s's JSON export to w.
func exportTruncated(w io.Writer, s *intelstore.Store) error {
	var buf bytes.Buffer
	if err := s.ExportJSON(&buf); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	_, err := fmt.Fprintln(w, string(buf.Bytes()[:min(buf.Len(), 600)])+"…")
	return err
}
