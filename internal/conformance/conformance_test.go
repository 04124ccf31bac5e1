package conformance

import (
	"bytes"
	"sync"
	"testing"

	"intellog/internal/core"
	"intellog/internal/logging"
	"intellog/internal/workload"
)

// corpora caches each generated corpus for the test binary, keyed by
// spec name: several tests read every corpus of the matrix, none of them
// modifies one, and generation is deterministic (TestCorpusDeterminism).
var corpora sync.Map // name → *corpusOnce

type corpusOnce struct {
	once sync.Once
	c    *Corpus
}

func corpusFor(sp Spec) *Corpus {
	e, _ := corpora.LoadOrStore(sp.Name, new(corpusOnce))
	co := e.(*corpusOnce)
	co.once.Do(func() { co.c = sp.Generate() })
	return co.c
}

// TestMatrixShape pins the acceptance contract of the corpus matrix: at
// least thirteen corpora, spanning at least six frameworks and at least
// two hostile traffic profiles, with at least one line-fault-injected
// corpus. Shrinking the matrix below that weakens the oracle, so it
// fails here first.
func TestMatrixShape(t *testing.T) {
	matrix := DefaultMatrix()
	if len(matrix) < 13 {
		t.Fatalf("matrix has %d corpora, want ≥ 13", len(matrix))
	}
	faulted := 0
	fws := map[logging.Framework]bool{}
	hostiles := map[workload.HostileProfile]bool{}
	for _, sp := range matrix {
		if sp.LineFaults {
			faulted++
		}
		fws[sp.Framework] = true
		if sp.Hostile != "" {
			if !sp.Hostile.Known() {
				t.Errorf("corpus %s names unknown hostile profile %q", sp.Name, sp.Hostile)
			}
			hostiles[sp.Hostile] = true
		}
	}
	if faulted < 1 {
		t.Errorf("matrix has no line-fault-injected corpus")
	}
	if len(fws) < 6 {
		t.Errorf("matrix spans %d frameworks, want ≥ 6", len(fws))
	}
	if len(hostiles) < 2 {
		t.Errorf("matrix spans %d hostile profiles, want ≥ 2", len(hostiles))
	}
	for _, fw := range []logging.Framework{
		logging.Spark, logging.MapReduce, logging.Tez,
		logging.TensorFlow, logging.Flink, logging.HDFS, logging.YarnRM,
	} {
		if !fws[fw] {
			t.Errorf("matrix misses framework %s", fw)
		}
	}
	gated := 0
	for _, sp := range GatedSpecs() {
		if sp.Hostile != "" {
			gated++
		}
	}
	if gated < 2 {
		t.Errorf("only %d hostile corpora are accuracy-gated, want ≥ 2 (time-only profiles must stay gateable)", gated)
	}
}

// TestCorpusDeterminism: the harness's own contract — a Spec regenerates
// byte-identically, including the perturbed corpora.
func TestCorpusDeterminism(t *testing.T) {
	// Index 0 and 5 cover clean and line-faulted corpora; 12 and 14 cover
	// a time-only hostile profile and dupstorm stacked on line faults.
	for _, sp := range []Spec{DefaultMatrix()[0], DefaultMatrix()[5], DefaultMatrix()[12], DefaultMatrix()[14]} {
		a, b := sp.Generate(), sp.Generate()
		if len(a.Records) != len(b.Records) {
			t.Fatalf("%s: %d vs %d records across regenerations", sp.Name, len(a.Records), len(b.Records))
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("%s: record %d differs across regenerations:\n%+v\n%+v", sp.Name, i, a.Records[i], b.Records[i])
			}
		}
		if len(a.Truth) != len(b.Truth) {
			t.Fatalf("%s: ground truth differs across regenerations", sp.Name)
		}
		for id := range a.Truth {
			if !b.Truth[id] {
				t.Fatalf("%s: ground truth session %s missing on regeneration", sp.Name, id)
			}
		}
	}
}

// TestDifferentialOracle is the tentpole: over every corpus of the
// matrix, every leg of OracleLegs — batch, sharded batch, streaming,
// chunked streaming, checkpoint/kill/resume, and the idle legs — must
// produce a canonical report byte-identical to batch detection, unless
// the cell is in the known-divergent ratchet with exactly the counts it
// reports.
func TestDifferentialOracle(t *testing.T) {
	for _, sp := range DefaultMatrix() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			c := corpusFor(sp)
			if len(c.Records) == 0 {
				t.Fatal("empty corpus")
			}
			checkOracle(t, sp.Name, ModelFor(sp.Framework), c.Records, sp.Seed+99)
		})
	}
}

// checkOracle runs every leg over recs and judges each against the batch
// reference through the known-divergent ratchet.
func checkOracle(t *testing.T, corpus string, m *core.Model, recs []logging.Record, seed int64) {
	t.Helper()
	paths, err := RunOracle(m, recs, seed)
	if err != nil {
		t.Fatal(err)
	}
	known := KnownDivergent()
	ref := paths[0]
	for _, p := range paths[1:] {
		diverged := p.Diverges(ref)
		msg := known.Verdict(p.Cell(corpus), diverged)
		if msg == "" {
			continue
		}
		if diverged && p.Canon != nil {
			msg += "\n" + firstDiff(ref.Canon, p.Canon)
		}
		t.Errorf("%s (batch: %d anomalies / %d sessions, %d records)", msg, ref.Anomalies, ref.Sessions, len(recs))
	}
}

// firstDiff renders the first differing canonical line of two reports.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return "line " + itoa(i) + ":\n  want: " + string(al[i]) + "\n  got:  " + string(bl[i])
		}
	}
	return "reports differ in length: " + itoa(len(al)) + " vs " + itoa(len(bl)) + " lines"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestAccuracyGates scores batch detection against the simulator's
// ground truth on the gated corpora and enforces the per-framework
// floors. The measured scores are logged so floor updates stay honest.
func TestAccuracyGates(t *testing.T) {
	for _, sp := range GatedSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			c := corpusFor(sp)
			m := ModelFor(sp.Framework)
			sessions := c.Sessions()
			score := ScoreReport(m.Detect(sessions), sessions, c.Truth)
			t.Logf("%s: %s", sp.Framework, score)
			gate, ok := DefaultGates[sp.Framework]
			if !ok {
				t.Fatalf("no gate configured for %s", sp.Framework)
			}
			if err := gate.Check(score); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGatesCatchCrippledDetector proves the gates actually bite: a model
// trained with every structural check disabled (no critical keys, no
// hierarchy check, no missing-group check) must land below the recall
// floor and fail the gate. If this test ever passes the gate, the gates
// have gone soft.
func TestGatesCatchCrippledDetector(t *testing.T) {
	sp := GatedSpecs()[0] // spark-faulted
	c := sp.Generate()
	crippled := core.Train(TrainingSessions(sp.Framework), core.Config{
		DisableCriticalKeys:      true,
		DisableHierarchyCheck:    true,
		DisableMissingGroupCheck: true,
	})
	sessions := c.Sessions()
	score := ScoreReport(crippled.Detect(sessions), sessions, c.Truth)
	t.Logf("crippled detector: %s", score)
	if err := DefaultGates[sp.Framework].Check(score); err == nil {
		t.Fatalf("gate passed a detector with all structural checks disabled (%s) — floors are too low", score)
	}
}
