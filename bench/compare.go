package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric, its unit and which way is better.
type metricDef struct {
	name, unit, better string
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json bounds: the
// ones defined on every workload. The driver's result line carries
// exactly these.
var gatedEndToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_rps", "1/s", "higher"},
	{"cpu_us_per_rec", "us", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"ack_p50_ms", "ms", "lower"},
}

// ungatedEndToEnd are reported and compared but not bounded by
// BENCHMARK.json: ack_p99_ms rides on a handful of checkpoint and expiry
// stalls per run and never repeats within 25 %; the rest exist only
// where there is a reader beside the sender. (failed_share is 0 on a
// healthy run; the driver sees it as failed ÷ attempted.)
var ungatedEndToEnd = []metricDef{
	{"ack_p99_ms", "ms", "lower"},
	{"visible_p50_ms", "ms", "lower"},
	{"visible_p99_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
}

var perLayerMetrics = []metricDef{
	{"server.ndjson_ack_ns_per_rec", "ns", "lower"},
	{"server.ils1_ack_ns_per_rec", "ns", "lower"},
	{"server.refused_share", "ratio", "lower"},
	{"server.queue_records_p50", "count", "lower"},
	{"server.anomalies_page_ns", "ns", "lower"},
	{"server.checkpoint_ms", "ms", "lower"},
	{"server.checkpoints", "count", "higher"},
	{"server.unattributed_share", "ratio", "lower"},
	{"wal.encode_ns_per_rec", "ns", "lower"},
	{"wal.decode_ns_per_rec", "ns", "lower"},
	{"wal.append_ns_per_rec.none", "ns", "lower"},
	{"wal.append_ns_per_rec.interval", "ns", "lower"},
	{"wal.append_ns_per_rec.always", "ns", "lower"},
	{"wal.sync_ms", "ms", "lower"},
	{"wal.replay_ns_per_rec", "ns", "lower"},
	{"wal.bytes_per_rec", "B", "lower"},
	{"batch.rent_release_ns", "ns", "lower"},
	{"batch.hit_share", "ratio", "higher"},
	{"nlp.tokenize_ns_per_rec", "ns", "lower"},
	{"spell.lookup_ns_per_rec", "ns", "lower"},
	{"spell.cache_peek_ns", "ns", "lower"},
	{"spell.cache_hit_share", "ratio", "higher"},
	{"extract.bind_ns_per_rec", "ns", "lower"},
	{"detect.consume_cold_ns_per_rec", "ns", "lower"},
	{"detect.consume_warm_ns_per_rec", "ns", "lower"},
	{"detect.batch_ns_per_rec", "ns", "lower"},
	{"detect.pending_sessions", "count", "lower"},
	{"detect.expiry_heap_depth", "count", "lower"},
	{"detect.anomalies_per_krec", "1/krec", "lower"},
	{"analytics.observe_ns_per_anomaly", "ns", "lower"},
	{"analytics.clusters_ms", "ms", "lower"},
	{"analytics.rollups_ms", "ms", "lower"},
	{"analytics.explain_ms", "ms", "lower"},
	{"core.train_ms", "ms", "lower"},
	{"core.model_load_ms", "ms", "lower"},
	{"core.checkpoint_save_ms", "ms", "lower"},
	{"core.checkpoint_bytes", "B", "lower"},
	{"metrics.scrape_ms", "ms", "lower"},
	{"runtime.allocs_per_rec", "count", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.heap_mb", "MiB", "lower"},
	{"loadgen.cpu_share", "ratio", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.encode_ns_per_rec", "ns", "lower"},
	{"bench.build_s", "s", "lower"},
	{"bench.trace_overhead_share", "ratio", "lower"},
}

// benchmarkJSON mirrors the root BENCHMARK.json, field order included,
// so -calibrate can write bounds back without disturbing the rest.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// maxBound is the largest bound BENCHMARK.json's schema accepts. It also
// applies to the end-to-end metrics the file cannot carry because they
// exist on one workload only.
const maxBound = 0.25

// values collects one metric's value over a workload's runs.
func values(runs []runResult, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareFiles lists every end-to-end metric × workload of two result
// sets as within / regressed / unresolved under BENCHMARK.json's bounds:
// regressed when b's median is worse than a's by more than the bound,
// unresolved when either set's own spread is wider than the bound (so
// the comparison cannot tell). A single run has no spread to judge by.
func compareFiles(w io.Writer, root, pathA, pathB string) (regressed bool, err error) {
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		return false, err
	}
	bounds := map[string]float64{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var a, b resultFile
	for path, dst := range map[string]*resultFile{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a.median", "b.median", "change", "spread", "bound", "verdict")
	for _, spec := range workloads {
		for _, d := range append(append([]metricDef{}, gatedEndToEnd...), ungatedEndToEnd...) {
			va, vb := values(a.Runs, spec.name, d.name), values(b.Runs, spec.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound, ok := bounds[d.name]
			if !ok {
				bound = maxBound
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = (ma - mb) / ma
			}
			sp := max(spread(va), spread(vb))
			verdict := "within"
			switch {
			case sp > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				spec.name, d.name, ma, mb, 100*(mb-ma)/ma, 100*sp, 100*bound, verdict)
		}
	}
	return regressed, nil
}

// calibrateRun measures the spread the contract's acceptance rule looks
// at — n driver-shaped runs per workload on consecutive seeds — and
// writes bound = max(10 %, 3·IQR÷median), the largest over the workloads
// and at most maxBound, into BENCHMARK.json for every metric but setup_s
// (which keeps the largest bound: its spread is exempt, its median is
// not).
func calibrateRun(root string, cfg runConfig, n int) int {
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		fatal(err)
	}
	cfg.measure, cfg.traced = time.Duration(bj.RunSeconds)*time.Second, 0
	var runs []runResult
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		for _, spec := range workloads {
			res, err := runWorkload(spec, c, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: INVALID: %v\n", spec.name, c.seed, err)
				return 1
			}
			runs = append(runs, res)
		}
	}
	for i := range bj.EndToEnd {
		m := &bj.EndToEnd[i]
		worst := 0.0
		for _, spec := range workloads {
			sp := spread(values(runs, spec.name, m.Name))
			fmt.Printf("%-16s %-16s spread %5.1f%%\n", spec.name, m.Name, 100*sp)
			worst = max(worst, sp)
		}
		want := max(3*worst, 0.10)
		m.Bound = min(want, maxBound)
		if m.Name == "setup_s" {
			m.Bound = maxBound
		}
		fmt.Printf("%-16s bound %.2f\n", m.Name, m.Bound)
		if want > maxBound {
			fmt.Printf("%-16s max(10 %%, 3·IQR÷median) is %.2f, over the %.2f BENCHMARK.json may carry: a verdict on this metric needs more runs than one set\n", m.Name, want, maxBound)
		}
	}
	raw, _ := json.MarshalIndent(bj, "", "  ") // plain structs always marshal
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote bounds to BENCHMARK.json")
	return 0
}

// environment is the block every result JSON carries.
type environment struct {
	Commit        string `json:"commit"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Kernel        string `json:"kernel"`
	Seed          int64  `json:"seed"`
	MeasureSecs   int    `json:"measure_seconds"`
	TracedSecs    int    `json:"traced_seconds"`
	Short         bool   `json:"short,omitempty"`
	DaemonCommand string `json:"daemon_flags"`
}

func describeEnv(root string, cfg runConfig) environment {
	env := environment{
		Commit:        "unknown",
		GoVersion:     runtime.Version(),
		CPUModel:      "unknown",
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Kernel:        "unknown",
		Seed:          cfg.seed,
		MeasureSecs:   int(cfg.measure.Seconds()),
		TracedSecs:    int(cfg.traced.Seconds()),
		Short:         cfg.epochs != 0,
		DaemonCommand: strings.Join(daemonFlags, " ") + " (GOMAXPROCS=2)",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}
