package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"intellog/internal/conformance"
	"intellog/internal/core"
	"intellog/internal/logging"
)

var update = flag.Bool("update", false, "rewrite testdata/model_digests.txt")

// The frozen model digests: one checked-in line per framework the oracle
// matrix covers, giving the record count of its training corpus and the
// SHA-256 of the saved model trained on it. TestSavedModelIsDeterministic
// compares two trainings by the same code; these lines compare training
// against every earlier tree, so a change to how Train schedules its work
// must leave them alone. A change that moves a model on purpose rewrites
// them:
//
//	go test ./internal/core -run TestModelDigests -update
const modelDigestFile = "testdata/model_digests.txt"

const modelDigestHeader = `# Frozen saved-model digests, one line per framework of conformance.DefaultMatrix():
# <framework> <training records> sha256=<hex of Model.Save>
#
# A moved line means the trained model changed; rewrite with -update
# only when the change is intended.
`

// matrixFrameworks lists the frameworks of the oracle matrix in first
// appearance order.
func matrixFrameworks() []logging.Framework {
	var out []logging.Framework
	seen := map[logging.Framework]bool{}
	for _, sp := range conformance.DefaultMatrix() {
		if !seen[sp.Framework] {
			seen[sp.Framework] = true
			out = append(out, sp.Framework)
		}
	}
	return out
}

// modelDigest renders fw's digest line: training record count and the
// hash of the saved model.
func modelDigest(t *testing.T, fw logging.Framework) string {
	t.Helper()
	sessions := conformance.TrainingSessions(fw)
	records := 0
	for _, s := range sessions {
		records += len(s.Records)
	}
	var buf bytes.Buffer
	if err := core.Train(sessions, core.Config{}).Save(&buf); err != nil {
		t.Fatalf("%s: Save: %v", fw, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%s %d sha256=%s", fw, records, hex.EncodeToString(sum[:]))
}

// TestModelDigests trains every matrix framework's reference model and
// checks its saved bytes against the frozen line.
func TestModelDigests(t *testing.T) {
	var got []string
	for _, fw := range matrixFrameworks() {
		got = append(got, modelDigest(t, fw))
	}
	if *update {
		text := modelDigestHeader + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(modelDigestFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d frameworks)", modelDigestFile, len(got))
		return
	}
	raw, err := os.ReadFile(modelDigestFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fw, _, _ := strings.Cut(line, " ")
		want[fw] = line
	}
	for _, line := range got {
		fw, _, _ := strings.Cut(line, " ")
		if w, ok := want[fw]; !ok {
			t.Errorf("%s has no line in %s (rewrite with -update): %s", fw, modelDigestFile, line)
		} else if w != line {
			t.Errorf("%s model moved from its line in %s\n  want: %s\n  got:  %s", fw, modelDigestFile, w, line)
		}
		delete(want, fw)
	}
	for fw := range want {
		t.Errorf("%s lists %s, which the matrix no longer covers", modelDigestFile, fw)
	}
}
