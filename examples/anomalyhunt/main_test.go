package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example and checks that the GroupBy queries isolate the failing host.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = "root cause isolated: all fetch failures point at a single host."
	if !strings.Contains(out.String(), want+"\n") {
		t.Errorf("output lacks the line %q:\n%s", want, out.String())
	}
}
