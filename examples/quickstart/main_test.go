package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example and checks that the injected SIGKILL leaves one problematic session.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = `job "Scan": 6 sessions, 1 problematic`
	if !strings.Contains(out.String(), want+"\n") {
		t.Errorf("output lacks the line %q:\n%s", want, out.String())
	}
}
