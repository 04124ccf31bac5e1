package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortConfig builds the daemon and returns the
// -short run configuration over a scratch directory of the test's own.
func shortConfig(t *testing.T) runConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("boots intellogd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "intellogd")
	built, err := buildDaemon("..", bin)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{
		seed: 1, epochs: 1, setupReps: 1,
		measure: 2 * time.Second, traced: 2 * time.Second,
		daemonBin: bin, workDir: dir, traceOut: dir, buildS: built.Seconds(),
	}
}

// Every named metric is emitted, finite and carries its unit, on every
// workload, and every workload passes its correctness gate — on short
// runs, so long ones stay out of the test suite.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	cfg := shortConfig(t)
	for _, spec := range workloads {
		res, err := runWorkload(spec, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", spec.name, res.Correct, res.Failed, res.Attempted)
		}
		check := func(kind string, got map[string]metric, defs []metricDef) {
			for _, d := range defs {
				m, ok := got[d.name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", spec.name, kind, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is not finite", spec.name, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s has unit %q, want %q", spec.name, d.name, m.Unit, d.unit)
				}
			}
		}
		check("end-to-end", res.EndToEnd, gatedEndToEnd)
		for _, d := range gatedEndToEnd {
			if res.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v; a bounded metric must never be 0", spec.name, d.name, res.EndToEnd[d.name].Value)
			}
		}
		check("end-to-end", res.EndToEnd, []metricDef{{"failed_share", "ratio", "lower"}})
		check("end-to-end", res.EndToEnd, ungatedEndToEnd[:1])
		if spec.rate > 0 {
			check("end-to-end", res.EndToEnd, ungatedEndToEnd[1:])
		}
		check("per-layer", res.PerLayer, perLayerMetrics)
		if len(res.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics emitted, %d named", spec.name, len(res.PerLayer), len(perLayerMetrics))
		}

		raw, err := os.ReadFile(filepath.Join(cfg.traceOut, "trace-"+spec.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: trace unreadable or empty: %v", spec.name, err)
		}
		for _, s := range spans {
			if s.Workload != spec.name || s.End < s.Start || s.Parent >= s.ID {
				t.Fatalf("%s: malformed span %+v", spec.name, s)
			}
		}
	}
}

// The gate is only worth having if it trips. With the second half of
// every epoch shifted past the idle timeout, live sessions expire under
// their own later records, the daemon scores each as two, and its
// anomaly count leaves the batch reference.
func TestGateTripsOnMisShiftedEpoch(t *testing.T) {
	cfg := shortConfig(t)
	cfg.misShift = true
	cfg.traced = 0
	spec, _ := findWorkload("spark_ils1")
	res, err := runWorkload(spec, cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "correctness gate") {
		t.Fatalf("mis-shifted run: err = %v; want a correctness gate failure", err)
	}
	if res.Correct {
		t.Error("mis-shifted run reported correct")
	}
}

// Two runs of one workload in one process (-runs, -calibrate) must not
// meet each other's daemon state: a daemon restored from an earlier
// run's checkpoint carries its stream clock, and the new stream, starting
// again at the epoch base, arrives hours late.
func TestRunsDoNotShareState(t *testing.T) {
	cfg := shortConfig(t)
	cfg.traced = 0
	spec, _ := findWorkload("hdfs_ils1")
	for i := 0; i < 2; i++ {
		if _, err := runWorkload(spec, cfg, io.Discard); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// A family the daemon stops exposing must fail the scrape, not read as 0
// and let the gate's "== 0" checks pass with nothing behind them.
func TestScrapeRejectsMissingFamily(t *testing.T) {
	var text strings.Builder
	for _, name := range scrapedNames[1:] {
		text.WriteString(name + `{tenant="bench"} 0` + "\n")
	}
	err := parseMetrics(text.String()).checkNames()
	if err == nil || !strings.Contains(err.Error(), scrapedNames[0]) {
		t.Fatalf("exposition without %s: err = %v", scrapedNames[0], err)
	}
	text.WriteString(scrapedNames[0] + " 3\n")
	if err := parseMetrics(text.String()).checkNames(); err != nil {
		t.Fatalf("complete exposition: %v", err)
	}
}

// BENCHMARK.json and the tables in compare.go name the same workloads
// and metrics with the same units and directions.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bj, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(gatedEndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(gatedEndToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := gatedEndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if m.Bound < 0.10 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0.10, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(rps ...float64) resultFile {
		var f resultFile
		for _, v := range rps {
			f.Runs = append(f.Runs, runResult{Workload: "spark_ils1", Correct: true, EndToEnd: map[string]metric{
				"ingest_rps": {Value: v, Unit: "1/s"},
				"ack_p50_ms": {Value: 1, Unit: "ms"},
			}})
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", set(100, 101, 99, 100))
	cases := []struct {
		name      string
		other     resultFile
		verdict   string
		regressed bool
	}{
		{"same", set(100, 102, 98, 101), "within", false},
		{"slower", set(60, 61, 59, 60), "regressed", true},
		{"noisy", set(100, 30, 170, 100), "unresolved", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, "..", base, write(c.name+".json", c.other))
		if err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "ingest_rps") {
				line = l
			}
		}
		if !strings.HasSuffix(line, c.verdict) || regressed != c.regressed {
			t.Errorf("%s: regressed=%v, line %q; want verdict %s", c.name, regressed, line, c.verdict)
		}
	}
}

// Throughput is the median window, so one stalled window does not move it.
func TestIngestRPSIsTheMedianWindow(t *testing.T) {
	start := time.Now()
	p := &phase{start: start, end: start.Add(3 * windowLen)}
	for k, recs := range []int{1000, 10, 2000} { // per window
		p.acks = append(p.acks, ackSample{at: start.Add(time.Duration(k)*windowLen + time.Second), recs: recs})
	}
	got := p.ingestRPS()
	if want := 1000 / windowLen.Seconds(); got.N != 3 || math.Abs(got.Value-want) > 1e-9 {
		t.Errorf("ingestRPS = %+v; want %v over 3 windows", got, want)
	}
	short := &phase{start: start, end: start.Add(2 * time.Second), acks: []ackSample{{at: start.Add(time.Second), recs: 500}}}
	if got := short.ingestRPS(); got.N != 1 || got.Value != 250 {
		t.Errorf("a phase shorter than a window: ingestRPS = %+v; want 250 over 1 window", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance rule for the benchmark's spread is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 3", q1, q3)
	}
}
