package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/sim"
)

// cmdStream is the online mode of Fig. 2: consume an aggregated log
// stream line by line, sessionize incrementally, report anomalies as they
// are found, and finalize whatever is still in flight at EOF. Optional
// flags bound memory (idle timeout, session/message caps), checkpoint the
// detector so a restart resumes mid-stream, and fault-inject the input to
// exercise robustness end to end.
// validateStreamFlags rejects flag combinations the rest of cmdStream
// would otherwise misread silently: out-of-range fault probabilities, a
// fault seed with no fault enabled, or a checkpoint cadence with nowhere
// to write checkpoints.
func validateStreamFlags(fs *flag.FlagSet, truncate, corrupt, dup float64, reorder int, checkpoint string, every int) error {
	probs := []struct {
		name string
		val  float64
	}{
		{"-fault-truncate", truncate},
		{"-fault-corrupt", corrupt},
		{"-fault-dup", dup},
	}
	for _, p := range probs {
		if p.val < 0 || p.val > 1 {
			return fmt.Errorf("%s = %v: probability must be in [0, 1]", p.name, p.val)
		}
	}
	if reorder < 0 {
		return fmt.Errorf("-fault-reorder = %d: window must be >= 0", reorder)
	}
	if every < 0 {
		return fmt.Errorf("-checkpoint-every = %d: must be >= 0 (0 disables periodic writes)", every)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	anyFault := truncate > 0 || corrupt > 0 || dup > 0 || reorder > 0
	if set["fault-seed"] && !anyFault {
		return fmt.Errorf("-fault-seed set but no fault enabled; set at least one of -fault-truncate, -fault-corrupt, -fault-dup, -fault-reorder")
	}
	if set["checkpoint-every"] && checkpoint == "" {
		return fmt.Errorf("-checkpoint-every set without -checkpoint")
	}
	return nil
}

func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	framework := fs.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
	input := fs.String("input", "", "aggregated log file to stream ('-' or empty = stdin)")
	model := fs.String("model", "model.json", "trained model file")
	idle := fs.Duration("idle", 0, "finalize a session when its log time falls this far behind the stream (0 = only at EOF)")
	maxSessions := fs.Int("max-sessions", 0, "max in-flight sessions; the longest-idle is force-closed beyond this (0 = unbounded)")
	maxMsgs := fs.Int("max-msgs", 0, "max buffered messages per session; further ones are dropped with an overflow finding (0 = unbounded)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file: resumed from if present, rewritten every -checkpoint-every records")
	checkpointEvery := fs.Int("checkpoint-every", 10000, "records between checkpoint writes (with -checkpoint)")
	summaryOnly := fs.Bool("summary-only", false, "suppress per-anomaly lines, print only the final summary")
	faultSeed := fs.Int64("fault-seed", 1, "fault-injection RNG seed")
	faultTruncate := fs.Float64("fault-truncate", 0, "probability a line is truncated mid-byte ("+sim.FaultFlagsDoc+")")
	faultCorrupt := fs.Float64("fault-corrupt", 0, "probability a line gets random bytes corrupted ("+sim.FaultFlagsDoc+")")
	faultDup := fs.Float64("fault-dup", 0, "probability a line is duplicated ("+sim.FaultFlagsDoc+")")
	faultReorder := fs.Int("fault-reorder", 0, "bounded reordering window in lines (0 disables)")
	fs.Parse(args)

	fw, err := parseFramework(*framework)
	if err != nil {
		return err
	}
	if err := validateStreamFlags(fs, *faultTruncate, *faultCorrupt, *faultDup,
		*faultReorder, *checkpoint, *checkpointEvery); err != nil {
		return err
	}
	cfg := detect.StreamConfig{
		IdleTimeout:    *idle,
		MaxSessions:    *maxSessions,
		MaxSessionMsgs: *maxMsgs,
	}

	// Resume from a checkpoint when one exists; otherwise start fresh from
	// the trained model.
	var (
		m           *core.Model
		sd          *detect.StreamDetector
		sticky      string // sessionizer state recovered from the checkpoint
		lastTouched time.Time
		cursor      int64 // raw input lines the checkpointed run already consumed
	)
	if *checkpoint != "" {
		if f, err := os.Open(*checkpoint); err == nil {
			var st *detect.StreamState
			m, st, cursor, _, err = core.LoadCheckpointState(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("resume %s: %w", *checkpoint, err)
			}
			sd, err = m.RestoreStream(cfg, st)
			if err != nil {
				return fmt.Errorf("resume %s: %w", *checkpoint, err)
			}
			// Resume the sessionizer where ID-less records were sticking
			// at the cut. Newer checkpoints record it exactly; for older
			// ones fall back to the session touched last before the cut.
			sticky = st.Sticky
			if sticky == "" {
				for _, sess := range st.Sessions {
					if sticky == "" || sess.Last.After(lastTouched) {
						sticky, lastTouched = sess.ID, sess.Last
					}
				}
			}
			fmt.Printf("resumed from %s: %d in-flight sessions, %d seen, fast-forwarding %d lines\n",
				*checkpoint, sd.Pending(), sd.SessionsSeen(), cursor)
		}
	}
	if sd == nil {
		if m, err = loadModel(*model); err != nil {
			return err
		}
		sd = detect.NewStream(m.Detector(), cfg)
	}

	var in io.Reader = os.Stdin
	if *input != "" && *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var injector *sim.FaultInjector
	if *faultTruncate > 0 || *faultCorrupt > 0 || *faultDup > 0 || *faultReorder > 0 {
		injector = sim.NewFaultInjector(*faultSeed)
		injector.TruncateProb = *faultTruncate
		injector.CorruptProb = *faultCorrupt
		injector.DuplicateProb = *faultDup
		injector.ReorderWindow = *faultReorder
		fmt.Printf("fault injection: %s (seed %d)\n", injector.DescribeFaults(), *faultSeed)
	}

	formatter := logging.FormatterFor(fw)
	assigner := logging.SessionAssigner{}
	assigner.Resume(sticky)
	findings := 0
	emit := func(anomalies []detect.Anomaly) {
		findings += len(anomalies)
		if *summaryOnly {
			return
		}
		for _, a := range anomalies {
			switch a.Kind {
			case detect.UnexpectedMessage:
				fmt.Printf("  [%s] %s (group %q): %s\n", a.Session, a.Kind, a.Group, a.Record.Message)
			default:
				fmt.Printf("  [%s] %s: %s\n", a.Session, a.Kind, a.Detail)
			}
		}
	}
	saveCheckpoint := func(at int64) error {
		tmp := *checkpoint + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		st := sd.State()
		st.Sticky = assigner.Current()
		if err := core.SaveCheckpointState(f, m, st, at, nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, *checkpoint)
	}

	lines, skipped, consumed := 0, 0, 0
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	consumeLine := func(line string) error {
		lines++
		// A resumed run fast-forwards past input the checkpointed run
		// already consumed (assumes the same input stream from the start).
		if int64(lines) <= cursor {
			return nil
		}
		rec, ok := formatter.Parse(line)
		if !ok || !assigner.Assign(&rec) {
			// Unparsable (corrupt/truncated/continuation) or pre-session
			// chatter: robustness means skipping, not failing.
			skipped++
			return nil
		}
		emit(sd.Consume(rec))
		consumed++
		if *checkpoint != "" && *checkpointEvery > 0 && consumed%*checkpointEvery == 0 {
			return saveCheckpoint(int64(lines))
		}
		return nil
	}
	if injector != nil {
		// Reordering needs a window of lines; the corpus is read first and
		// perturbed as a whole, then streamed through the detector.
		var raw []string
		for scanner.Scan() {
			raw = append(raw, scanner.Text())
		}
		for _, line := range injector.PerturbLines(raw) {
			if err := consumeLine(line); err != nil {
				return err
			}
		}
	} else {
		for scanner.Scan() {
			if err := consumeLine(scanner.Text()); err != nil {
				return err
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}

	report := sd.Flush()
	emit(report.Anomalies)
	if *checkpoint != "" {
		// Clean EOF: everything is flushed and reported, so the bookmark
		// resets — a follow-up invocation (e.g. the next rotated file)
		// starts from the top of its own input.
		if err := saveCheckpoint(0); err != nil {
			return err
		}
	}
	fmt.Printf("streamed %d lines (%d consumed, %d skipped) in %d sessions: %d findings\n",
		lines, consumed, skipped, report.Sessions, findings)
	fmt.Print(report.Summary())
	return nil
}
