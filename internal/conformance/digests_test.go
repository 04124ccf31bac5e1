package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"intellog/internal/core"
	"intellog/internal/detect"
)

// The frozen reference digests: one checked-in line per oracle corpus
// summarising its batch report — anomaly and session counts, counts per
// kind, and the SHA-256 of the canonical report. Every oracle leg shares
// the detector's resolve/bind/check code, so "every leg equals batch"
// cannot see a change to that code; these lines can. A change that moves
// detection output on purpose rewrites them:
//
//	go test ./internal/conformance -run TestReferenceDigests -update

// digestFile is the digest list's path from the repository root.
const digestFile = "internal/conformance/testdata/reference_digests.txt"

const digestHeader = `# Frozen batch-report digests, one line per oracle corpus:
# <corpus> <anomalies> <sessions> <kind>=<count>... sha256=<hex>
#
# The hash is over conformance.Canonicalize of batch detection. A moved
# line means detection output changed; rewrite with -update only when
# the change is intended, and say per kind what moved and why.
`

// digest is one corpus's line of the digest list.
type digest struct {
	Corpus              string
	Anomalies, Sessions int
	Kinds               map[string]int // kind name → count; zero counts absent
	SHA256              string
}

// String renders d as its digest line, kinds in detect.Kind order.
func (d digest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d", d.Corpus, d.Anomalies, d.Sessions)
	for k := detect.UnexpectedMessage; k <= detect.Overflow; k++ {
		if n := d.Kinds[k.String()]; n > 0 {
			fmt.Fprintf(&b, " %s=%d", k, n)
		}
	}
	return b.String() + " sha256=" + d.SHA256
}

// digestOf summarises one batch report.
func digestOf(corpus string, rep *detect.Report) (digest, error) {
	canon, err := Canonicalize(rep)
	if err != nil {
		return digest{}, err
	}
	sum := sha256.Sum256(canon)
	d := digest{Corpus: corpus, Anomalies: len(rep.Anomalies), Sessions: rep.Sessions,
		Kinds: map[string]int{}, SHA256: hex.EncodeToString(sum[:])}
	for _, a := range rep.Anomalies {
		d.Kinds[a.Kind.String()]++
	}
	return d, nil
}

// parseDigests reads a digest list; blank lines and #-comments are skipped.
func parseDigests(text string) (map[string]digest, error) {
	out := map[string]digest{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[len(f)-1], "sha256=") {
			return nil, fmt.Errorf("line %d: want <corpus> <anomalies> <sessions> <kind>=<n>... sha256=<hex>, got %q", i+1, line)
		}
		a, errA := strconv.Atoi(f[1])
		s, errS := strconv.Atoi(f[2])
		if errA != nil || errS != nil {
			return nil, fmt.Errorf("line %d: counts must be integers: %q", i+1, line)
		}
		d := digest{Corpus: f[0], Anomalies: a, Sessions: s, Kinds: map[string]int{},
			SHA256: strings.TrimPrefix(f[len(f)-1], "sha256=")}
		for _, kv := range f[3 : len(f)-1] {
			k, v, ok := strings.Cut(kv, "=")
			n, err := strconv.Atoi(v)
			if !ok || err != nil {
				return nil, fmt.Errorf("line %d: bad kind count %q", i+1, kv)
			}
			d.Kinds[k] = n
		}
		if _, dup := out[d.Corpus]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", i+1, d.Corpus)
		}
		out[d.Corpus] = d
	}
	return out, nil
}

// digestVerdict judges one corpus's digest against the list and returns
// the failure to report, or "" when the line is present and unmoved. A
// moved line names the per-kind delta, so the failure says what changed.
func digestVerdict(list map[string]digest, got digest) string {
	want, ok := list[got.Corpus]
	switch {
	case !ok:
		return fmt.Sprintf("%s has no line in %s (rewrite with -update): %s", got.Corpus, digestFile, got)
	case want.String() == got.String():
		return ""
	}
	var deltas []string
	kinds := map[string]bool{}
	for k := range want.Kinds {
		kinds[k] = true
	}
	for k := range got.Kinds {
		kinds[k] = true
	}
	for k := range kinds {
		if d := got.Kinds[k] - want.Kinds[k]; d != 0 {
			deltas = append(deltas, fmt.Sprintf("%s %+d", k, d))
		}
	}
	sort.Strings(deltas)
	moved := "same counts, finding content changed"
	if len(deltas) > 0 || got.Sessions != want.Sessions {
		moved = fmt.Sprintf("anomalies %d → %d, sessions %d → %d, by kind: %s",
			want.Anomalies, got.Anomalies, want.Sessions, got.Sessions, strings.Join(deltas, ", "))
	}
	return fmt.Sprintf("%s moved from its line in %s (%s)\n  want: %s\n  got:  %s",
		got.Corpus, digestFile, moved, want, got)
}

// batchReports caches each oracle corpus's batch report for the test
// binary: the digest check and the extraction cross-check both read it.
var batchReports struct {
	once sync.Once
	reps map[string]*detect.Report
	err  error
}

// oracleBatchReports returns the batch report of every matrix and loader
// corpus, by corpus name.
func oracleBatchReports(t *testing.T) map[string]*detect.Report {
	t.Helper()
	br := &batchReports
	br.once.Do(func() {
		br.reps = map[string]*detect.Report{}
		for _, sp := range DefaultMatrix() {
			br.reps[sp.Name] = BatchPath(ModelFor(sp.Framework).Detector(), corpusFor(sp).Records)
		}
		for _, lc := range loaderCorpora {
			c := lc.load(t)
			if len(c.Records) == 0 {
				br.err = fmt.Errorf("%s: loader produced no records", lc.name)
				return
			}
			br.reps[lc.name] = BatchPath(core.Train(c.Sessions(), core.Config{}).Detector(), c.Records)
		}
	})
	if br.err != nil {
		t.Fatal(br.err)
	}
	return br.reps
}

// TestReferenceDigests checks every oracle corpus's batch report against
// its frozen line in digestFile, and that the list names no other corpus.
func TestReferenceDigests(t *testing.T) {
	reps := oracleBatchReports(t)
	var got []digest
	for name, rep := range reps {
		d, err := digestOf(name, rep)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Corpus < got[j].Corpus })
	path := "testdata/reference_digests.txt"
	if *update {
		var b strings.Builder
		b.WriteString(digestHeader)
		for _, d := range got {
			b.WriteString(d.String() + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d corpora)", digestFile, len(got))
		return
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (write it with -update): %v", digestFile, err)
	}
	list, err := parseDigests(string(text))
	if err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	for _, d := range got {
		if msg := digestVerdict(list, d); msg != "" {
			t.Error(msg)
		}
	}
	for name := range list {
		if reps[name] == nil {
			t.Errorf("%s lists %s, which no oracle runs: delete its line", digestFile, name)
		}
	}
}

// TestDigestVerdict pins the verdict's outcomes on synthetic lines.
func TestDigestVerdict(t *testing.T) {
	list, err := parseDigests("# c\nspark-faulted 91 44 unexpected-message=60 missing-critical-keys=31 sha256=ab\n")
	if err != nil {
		t.Fatal(err)
	}
	base := list["spark-faulted"]
	if got := base.String(); got != "spark-faulted 91 44 unexpected-message=60 missing-critical-keys=31 sha256=ab" {
		t.Fatalf("round trip gave %q", got)
	}
	moved := base
	moved.Anomalies, moved.Kinds = 92, map[string]int{"unexpected-message": 60, "missing-critical-keys": 30, "order-violation": 2}
	content := base
	content.SHA256 = "cd"
	for _, tc := range []struct {
		name string
		got  digest
		want string
	}{
		{"unmoved", base, ""},
		{"unlisted", digest{Corpus: "tez-faulted", SHA256: "ef"}, "tez-faulted has no line in " + digestFile},
		{"counts moved", moved, "anomalies 91 → 92, sessions 44 → 44, by kind: missing-critical-keys -1, order-violation +2"},
		{"content moved", content, "same counts, finding content changed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := digestVerdict(list, tc.got)
			if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
				t.Fatalf("verdict %q, want it to contain %q", got, tc.want)
			}
		})
	}
	for _, bad := range []string{
		"spark-faulted 91 44",
		"spark-faulted many 44 sha256=ab",
		"spark-faulted 91 44 unexpected-message sha256=ab",
		"a 1 2 sha256=x\na 1 2 sha256=x",
	} {
		if _, err := parseDigests(bad); err == nil {
			t.Errorf("parseDigests(%q) accepted a malformed list", bad)
		}
	}
}
