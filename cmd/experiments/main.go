// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster and prints them in the paper's
// layout. Use -run to select one experiment, -train to set the training
// volume.
//
// Usage:
//
//	experiments                      # run everything
//	experiments -run table8          # one experiment
//	experiments -train 50 -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"intellog/internal/experiments"
)

// defaults are the flags' defaults: the run experiments_output.txt at the
// repository root captures.
var defaults = experiments.RunOptions{Run: "all", TrainJobs: 20, Seed: 7}

func main() {
	opts := defaults
	flag.StringVar(&opts.Run, "run", defaults.Run, "all | "+strings.Join(experiments.RunNames, " | "))
	flag.IntVar(&opts.TrainJobs, "train", defaults.TrainJobs, "training jobs per system")
	flag.Int64Var(&opts.Seed, "seed", defaults.Seed, "random seed")
	flag.Parse()

	if err := experiments.Run(os.Stdout, opts); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
}
