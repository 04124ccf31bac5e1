package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example and checks that the failures name the one unreachable parameter server.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = "unreachable parameter-server addresses named by the failures: [host3:2222]"
	if !strings.Contains(out.String(), want+"\n") {
		t.Errorf("output lacks the line %q:\n%s", want, out.String())
	}
}
