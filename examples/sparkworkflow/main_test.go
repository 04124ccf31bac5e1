package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example and checks a critical key of an accumulator subroutine in the Spark HW-graph.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = "  * Cleaned accumulator *  -> {, clean, accumulator}"
	if !strings.Contains(out.String(), want+"\n") {
		t.Errorf("output lacks the line %q:\n%s", want, out.String())
	}
}
