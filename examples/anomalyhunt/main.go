// Anomalyhunt reproduces the paper's case study 1 diagnosis flow: a
// MapReduce WordCount job suffers a network failure on one host; IntelLog
// narrows 200+ sessions to the problematic few, transforms the unexpected
// messages to Intel Messages, and two GroupBy queries isolate the failing
// host.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/extract"
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
	cluster := sim.NewCluster(26, 11)
	gen := workload.NewGenerator(cluster, 12)
	model := core.Train(gen.TrainingCorpus(logging.MapReduce, 12), core.Config{})

	// A 24GB WordCount with a network failure injected mid-run.
	job := cluster.RunJob(sim.JobSpec{
		Framework: logging.MapReduce, Name: "WordCount",
		InputMB: 24 * 1024, Containers: 32, CoresPerContainer: 8, MemoryMB: 4096,
	}, sim.FaultNetwork)

	report := model.Detect(job.Sessions)
	problematic := report.ProblematicSessions()
	fmt.Fprintf(w, "step 1: IntelLog reports %d problematic sessions out of %d\n",
		len(problematic), len(job.Sessions))

	// Step 2: the unexpected messages, transformed to Intel Messages.
	var unexpected []*extract.Message
	groups := map[string]bool{}
	for _, a := range report.ByKind(detect.UnexpectedMessage) {
		if a.Extracted != nil {
			unexpected = append(unexpected, a.Extracted)
			groups[a.Group] = true
		}
	}
	fmt.Fprintf(w, "step 2: %d unexpected messages; entity groups involved: %v\n",
		len(unexpected), sortedKeys(groups))

	// Step 3: GroupBy FETCHER — which fetchers hit connection failures?
	store := intelstore.New(unexpected)
	byFetcher := store.GroupByIdentifier("FETCHER")
	fmt.Fprintf(w, "step 3: GroupBy FETCHER -> %d fetcher groups with failures\n", len(byFetcher))

	// Step 4: GroupBy ADDR — the failures name exactly one host.
	byAddr := store.GroupByLocality("ADDR")
	fmt.Fprintf(w, "step 4: GroupBy ADDR -> %d group(s):\n", len(byAddr))
	for addr, g := range byAddr {
		fmt.Fprintf(w, "  %s: %d failure messages\n", addr, g.Len())
	}
	if len(byAddr) == 1 {
		fmt.Fprintln(w, "\nroot cause isolated: all fetch failures point at a single host.")
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
