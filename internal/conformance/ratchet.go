package conformance

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
)

// The known-divergent ratchet: the checked-in list of oracle cells
// (corpus × leg) that differ from their reference today. A listed cell
// that starts matching fails the run until its line is deleted, so a fix
// proves itself by shrinking the list; an unlisted cell that diverges
// fails the run, so the list never grows silently.

// RatchetFile is the list's path from the repository root.
const RatchetFile = "internal/conformance/testdata/known_divergent.txt"

//go:embed testdata/known_divergent.txt
var knownDivergentText string

// ShippedLeg is the server table's row that runs the daemon's shipped
// configuration (ILS1, WAL kill/restart, -idle 5m). Its cells live in
// the same list as the detector-level legs.
const ShippedLeg = "served-ils1-c1-w1-wal-idle5m"

// Cell is one corpus × leg outcome, as a ratchet line records it.
type Cell struct {
	Corpus, Leg         string
	Anomalies, Sessions int
}

// String renders c as its ratchet line.
func (c Cell) String() string {
	return fmt.Sprintf("%s %s %d %d", c.Corpus, c.Leg, c.Anomalies, c.Sessions)
}

// Ratchet is a known-divergent list, keyed by "corpus leg".
type Ratchet map[string]Cell

// ParseRatchet reads a list: one `<corpus> <leg> <anomalies> <sessions>`
// line per cell; blank lines and #-comments are skipped.
func ParseRatchet(text string) (Ratchet, error) {
	r := Ratchet{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("line %d: want <corpus> <leg> <anomalies> <sessions>, got %q", i+1, line)
		}
		a, errA := strconv.Atoi(f[2])
		s, errS := strconv.Atoi(f[3])
		if errA != nil || errS != nil {
			return nil, fmt.Errorf("line %d: counts must be integers: %q", i+1, line)
		}
		c := Cell{Corpus: f[0], Leg: f[1], Anomalies: a, Sessions: s}
		key := c.Corpus + " " + c.Leg
		if _, dup := r[key]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", i+1, key)
		}
		r[key] = c
	}
	return r, nil
}

// KnownDivergent returns the checked-in list. It panics on a malformed
// file; TestKnownDivergentNamesRealCells parses it first.
func KnownDivergent() Ratchet {
	r, err := ParseRatchet(knownDivergentText)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", RatchetFile, err))
	}
	return r
}

// Verdict judges one cell against the list and returns the failure to
// report, or "" when the cell is exact and unlisted, or diverges with
// exactly its listed counts.
func (r Ratchet) Verdict(got Cell, diverged bool) string {
	want, listed := r[got.Corpus+" "+got.Leg]
	switch {
	case listed && !diverged:
		return fmt.Sprintf("%s %s now matches its reference: delete this line from %s: %s",
			got.Corpus, got.Leg, RatchetFile, want)
	case !listed && diverged:
		return fmt.Sprintf("%s %s diverges from its reference (%d anomalies / %d sessions) and is not in %s",
			got.Corpus, got.Leg, got.Anomalies, got.Sessions, RatchetFile)
	case listed && (got.Anomalies != want.Anomalies || got.Sessions != want.Sessions):
		return fmt.Sprintf("%s %s counts changed: %s lists %d anomalies / %d sessions, the run gave %d / %d",
			got.Corpus, got.Leg, RatchetFile, want.Anomalies, want.Sessions, got.Anomalies, got.Sessions)
	}
	return ""
}
