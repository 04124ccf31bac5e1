package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"intellog/internal/experiments"
)

// TestExperimentsOutputFile: experiments_output.txt is what the command
// prints with its default flags, byte for byte. Every table re-runs
// training, Algorithm 2 and detection on the simulated cluster, so a
// change anywhere in the pipeline that moves a reported figure fails
// here. To accept a deliberate change, regenerate the file with
// `go run ./cmd/experiments > experiments_output.txt`.
func TestExperimentsOutputFile(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating the evaluation takes a few seconds; skipped with -short")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := experiments.Run(&got, defaults); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from experiments_output.txt at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
