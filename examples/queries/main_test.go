package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example and checks the job's Intel Message count.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = `job "KMeans" produced 9983 Intel Messages in 16 sessions`
	if !strings.Contains(out.String(), want+"\n") {
		t.Errorf("output lacks the line %q:\n%s", want, out.String())
	}
}
