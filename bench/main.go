// Command bench is the intellogd serving benchmark: it generates inputs
// from a seed, builds and boots cmd/intellogd as a subprocess under one
// pinned configuration, drives four duration-based workloads against it,
// checks the output against batch detection, and reports end-to-end and
// per-layer metrics. See README.md.
//
//	bench/run.sh -seed 1                       # all four workloads, result JSON + traces in bench/out
//	bench/run.sh --workload spark_ils1 --seed 1 --seconds 25 --trace 0   # what BENCHMARK.json's driver runs
//	bench/run.sh -compare a.json b.json        # apply BENCHMARK.json's bounds to two result sets
//	bench/run.sh -calibrate 10                 # derive the bounds from measured spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and print the driver's result line (default: all four)")
		seed      = flag.Int64("seed", 1, "input seed: same seed, same inputs")
		seconds   = flag.Int("seconds", 30, "measured seconds per workload")
		traceFlag = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 spends the second half of -seconds traced and reports the per-layer metrics")
		short     = flag.Bool("short", false, "2 s per phase and one epoch per cycle (for tests)")
		runs      = flag.Int("runs", 1, "without -workload: repeat the set this many times, seeds seed, seed+1, …")
		compare   = flag.Bool("compare", false, "compare two result files (args: a.json b.json) under BENCHMARK.json's bounds")
		calibrate = flag.Int("calibrate", 0, "run this many sets and write bounds = max(10 %, 3·IQR÷median), at most 0.25, into BENCHMARK.json")
	)
	flag.Parse()
	// The daemon gets GOMAXPROCS=2 and so does the generator, whatever
	// the box, so numbers stay comparable with the 2-CPU reference.
	runtime.GOMAXPROCS(2)
	log.SetOutput(io.Discard) // the in-process replica server logs through package log

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	bin := filepath.Join(buildDir, "intellogd")
	built, err := buildDaemon(root, bin)
	if err != nil {
		fatal(err)
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed:      *seed,
		measure:   time.Duration(*seconds) * time.Second,
		traced:    tracedLen,
		setupReps: 15,
		daemonBin: bin,
		workDir:   workDir,
		buildS:    built.Seconds(),
	}
	if *short {
		cfg.measure, cfg.traced, cfg.setupReps, cfg.epochs = 2*time.Second, 2*time.Second, 1, 1
	}
	code := 0
	switch {
	case *workload != "":
		code = driverRun(*workload, cfg, *traceFlag == 1)
	case *calibrate > 0:
		code = calibrateRun(root, cfg, *calibrate)
	default:
		code = fullRun(root, cfg, *runs)
	}
	os.RemoveAll(workDir)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot locates the repository root: the directory holding
// cmd/intellogd, looked for at the working directory and its parent
// (go run -C bench runs from bench/).
func findRoot() (string, error) {
	for _, c := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(c, "cmd", "intellogd")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no cmd/intellogd here or one level up: run from the repository root or from bench/")
}

// runWorkload is one complete run of one workload: generate, set up,
// warm up, measure untraced, optionally measure traced and replay the
// layers in process, then finish on an epoch boundary and apply the
// correctness gate. The daemon is stopped on every path.
func runWorkload(spec workloadSpec, cfg runConfig, w io.Writer) (res runResult, err error) {
	res = runResult{Workload: spec.name, Seed: cfg.seed}
	in := genInputs(spec.fw, cfg.seed, cfg.epochs)
	in.misShift = cfg.misShift
	r := &runner{
		spec: spec, cfg: cfg, in: in,
		tr:    newTracer(spec.name),
		httpc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	// A directory of the run's own: a daemon booted over another run's
	// state would restore its stream clock and see every record as late.
	if r.dir, err = os.MkdirTemp(cfg.workDir, spec.name+"-"); err != nil {
		return res, err
	}
	r.deadline = time.Now().Add(cfg.measure + cfg.traced + runSlack)
	defer func() {
		if serr := r.stop(); err == nil && serr != nil {
			err = fmt.Errorf("daemon shutdown: %w", serr)
		}
		os.RemoveAll(r.dir)
		res.Attempted, res.Failed = r.attempted, r.failed
	}()
	if err := r.setup(); err != nil {
		return res, err
	}
	if err := r.warmup(); err != nil {
		return res, err
	}
	drive := r.driveClosed
	if spec.rate > 0 {
		r.rd = startReader(r)
		drive = r.driveOpen
	}
	p, err := drive(cfg.measure)
	if err != nil {
		return res, err
	}
	if res.EndToEnd, err = r.endToEnd(p); err != nil {
		return res, err
	}
	if spec.rate > 0 {
		if late := pct(p.late, 0.99); late.Value > ms(lateLimit) {
			return res, fmt.Errorf("generator lateness p99 %.1f ms > %s: the offered rate was not delivered", late.Value, lateLimit)
		}
		if got := float64(p.records()) / p.end.Sub(p.start).Seconds(); got < deliveredMin*float64(spec.rate) {
			return res, fmt.Errorf("delivered %.0f rec/s of the %d offered: the daemon fell behind the open loop", got, spec.rate)
		}
	}

	var tp *phase
	if cfg.traced > 0 {
		r.tr.on.Store(true)
		if tp, err = drive(cfg.traced); err != nil {
			return res, err
		}
		id := r.tr.begin("client.checkpoint", -1)
		err = r.cl.Checkpoint()
		r.tr.end(id, 0)
		if err != nil {
			return res, fmt.Errorf("checkpoint: %w", err)
		}
	}
	if err := r.finish(); err != nil {
		return res, err
	}
	res.EndToEnd["failed_share"] = metric{Value: float64(r.failed) / float64(r.attempted), Unit: "ratio", N: r.attempted}
	res.Correct = true

	if tp != nil {
		res.PerLayer = r.perLayer(tp, p.ingestRPS().Value)
		layers, err := r.replica()
		if err != nil {
			return res, fmt.Errorf("layer replica: %w", err)
		}
		for name, m := range layers {
			res.PerLayer[name] = m
		}
		if !spec.ndjson {
			// The live Send round trip against the daemon itself.
			ns, n := r.tr.medianPerRecord("client.send")
			res.PerLayer["server.ils1_ack_ns_per_rec"] = metric{Value: ns, Unit: "ns", N: n}
		}
		res.PerLayer["detect.batch_ns_per_rec"] = metric{Value: float64(r.referenceNs) / float64(in.records), Unit: "ns", N: in.records}
		res.PerLayer["server.unattributed_share"] = unattributed(spec, res.PerLayer, tp.cpuPerRec())
		r.tr.on.Store(false)
		if cfg.traceOut != "" {
			if err := r.tr.write(filepath.Join(cfg.traceOut, "trace-"+spec.name+".json")); err != nil {
				return res, err
			}
		}
		if err := checkFinite(res.PerLayer); err != nil {
			return res, err
		}
	}
	if err := checkFinite(res.EndToEnd); err != nil {
		return res, err
	}
	if len(r.failures) > 0 {
		fmt.Fprintf(w, "%s: %d of %d operations failed: %v\n", spec.name, r.failed, r.attempted, r.failures)
	}
	return res, nil
}

// driverRun is the BENCHMARK.json contract: one workload, and as the
// last line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics — the end-to-end metrics named
// in BENCHMARK.json, or with tracing its per-layer metrics. A run that
// fails the correctness gate prints no numbers and exits non-zero.
func driverRun(name string, cfg runConfig, trace bool) int {
	spec, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	cfg.traced = 0
	if trace {
		cfg.measure /= 2
		cfg.traced = cfg.measure
	}
	res, err := runWorkload(spec, cfg, os.Stdout)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		line.Correct = false
	} else if trace {
		printMetrics(os.Stdout, name+" per-layer", res.PerLayer)
		for _, d := range perLayerMetrics {
			line.Metrics[d.name] = unitOnly(res.PerLayer[d.name])
		}
	} else {
		printMetrics(os.Stdout, name+" end-to-end", res.EndToEnd)
		for _, d := range gatedEndToEnd {
			line.Metrics[d.name] = unitOnly(res.EndToEnd[d.name])
		}
	}
	raw, _ := json.Marshal(line) // plain structs and maps always marshal
	fmt.Println(string(raw))
	if err != nil {
		return 1
	}
	return 0
}

// unitOnly drops the sample count: the driver's line carries exactly
// value and unit.
func unitOnly(m metric) metric { return metric{Value: m.Value, Unit: m.Unit} }

// resultFile is what a full run archives.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

// fullRun runs every workload (runs times, on consecutive seeds),
// prints every metric and writes the result JSON and the span traces to
// bench/out.
func fullRun(root string, cfg runConfig, runs int) int {
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg.traceOut = outDir
	file := resultFile{Env: describeEnv(root, cfg)}
	code := 0
	for i := 0; i < runs; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		for _, spec := range workloads {
			res, err := runWorkload(spec, c, os.Stdout)
			if err != nil {
				// An invalid run yields no numbers, only the verdict.
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: INVALID: %v\n", spec.name, c.seed, err)
				res.EndToEnd, res.PerLayer, res.Correct = nil, nil, false
				code = 1
			} else {
				printMetrics(os.Stdout, fmt.Sprintf("%s seed %d: end-to-end", spec.name, c.seed), res.EndToEnd)
				printMetrics(os.Stdout, fmt.Sprintf("%s seed %d: per-layer", spec.name, c.seed), res.PerLayer)
			}
			file.Runs = append(file.Runs, res)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	raw, _ := json.MarshalIndent(file, "", " ") // plain structs and maps always marshal
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	return code
}
