package conformance

import (
	"strings"
	"testing"
)

// TestRatchetVerdict pins the ratchet's three failures and its two clean
// outcomes on synthetic cells.
func TestRatchetVerdict(t *testing.T) {
	known, err := ParseRatchet("# comment\n\nspark-faulted lagged2-idle5m 2912 129\n")
	if err != nil {
		t.Fatal(err)
	}
	listed := Cell{Corpus: "spark-faulted", Leg: "lagged2-idle5m", Anomalies: 2912, Sessions: 129}
	for _, tc := range []struct {
		name     string
		cell     Cell
		diverged bool
		want     string // substring of the failure; "" for a clean verdict
	}{
		{"exact and unlisted", Cell{Corpus: "spark-faulted", Leg: "stream-idle5m", Anomalies: 91, Sessions: 44}, false, ""},
		{"listed with its counts", listed, true, ""},
		{"listed but passes", Cell{Corpus: "spark-faulted", Leg: "lagged2-idle5m", Anomalies: 91, Sessions: 44}, false,
			"now matches its reference: delete this line from " + RatchetFile + ": spark-faulted lagged2-idle5m 2912 129"},
		{"unlisted diverges", Cell{Corpus: "tez-faulted", Leg: "lagged2-idle5m", Anomalies: 957, Sessions: 274}, true,
			"tez-faulted lagged2-idle5m diverges from its reference (957 anomalies / 274 sessions) and is not in " + RatchetFile},
		{"counts changed", Cell{Corpus: "spark-faulted", Leg: "lagged2-idle5m", Anomalies: 2913, Sessions: 129}, true,
			"counts changed: " + RatchetFile + " lists 2912 anomalies / 129 sessions, the run gave 2913 / 129"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := known.Verdict(tc.cell, tc.diverged)
			if tc.want == "" && got != "" {
				t.Fatalf("verdict %q, want a clean pass", got)
			}
			if !strings.Contains(got, tc.want) || (tc.want != "" && got == "") {
				t.Fatalf("verdict %q, want it to contain %q", got, tc.want)
			}
		})
	}

	for _, bad := range []string{
		"spark-faulted lagged2-idle5m 2912",
		"spark-faulted lagged2-idle5m many 129",
		"a b 1 2\na b 3 4",
	} {
		if _, err := ParseRatchet(bad); err == nil {
			t.Errorf("ParseRatchet(%q) accepted a malformed list", bad)
		}
	}
}

// TestKnownDivergentNamesRealCells keeps the checked-in list honest: it
// parses, and every line names a corpus some oracle runs and a leg of
// the table (or the server's shipped-config row), so no line can
// outlive the cell it describes by a typo or a rename.
func TestKnownDivergentNamesRealCells(t *testing.T) {
	corpora := map[string]bool{}
	for _, sp := range DefaultMatrix() {
		corpora[sp.Name] = true
	}
	for _, lc := range loaderCorpora {
		corpora[lc.name] = true
	}
	legs := map[string]bool{ShippedLeg: true}
	for _, leg := range OracleLegs(1)[1:] {
		legs[leg.Name] = true
	}
	for _, c := range KnownDivergent() {
		if !corpora[c.Corpus] || !legs[c.Leg] {
			t.Errorf("%s line %q names no cell any oracle runs", RatchetFile, c)
		}
	}
}
