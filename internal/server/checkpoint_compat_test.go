package server

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"intellog/internal/conformance"
)

// copyDir copies the regular files of the tree at src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndentedCheckpointRestoresTenant: a tenant boots from a checkpoint
// in the indented form earlier versions wrote exactly as from the
// compact one — restored, the same WAL suffix replayed past its cursor,
// and the same anomaly log after a flush.
func TestIndentedCheckpointRestoresTenant(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	recs := conformance.DefaultMatrix()[1].Generate().Records // spark-faulted
	if len(recs) > 3000 {
		recs = recs[:3000]
	}
	cut := len(recs) / 2

	s, err := New(Config{ModelDir: modelDir, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	c := &Client{Base: hs.URL, Tenant: "acme"}
	if _, err := c.IngestRecords(recs[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestRecords(recs[cut:]); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	s.Kill() // the second half lives only in the WAL

	// The same state directory, with the checkpoint re-encoded the way an
	// Encoder with SetIndent("", " ") wrote it: Indent of the compact
	// document, newline-terminated.
	indentedDir := t.TempDir()
	copyDir(t, stateDir, indentedDir)
	ckpt := filepath.Join(indentedDir, "acme"+checkpointExt)
	compact, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, bytes.TrimSuffix(compact, []byte("\n")), "", " "); err != nil {
		t.Fatal(err)
	}
	indented.WriteByte('\n')
	if bytes.Equal(indented.Bytes(), compact) {
		t.Fatal("the checkpoint was already indented")
	}
	if err := os.WriteFile(ckpt, indented.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	boot := func(dir string) []byte {
		t.Helper()
		s, err := New(Config{ModelDir: modelDir, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		tn, err := s.Tenant("acme")
		if err != nil {
			t.Fatal(err)
		}
		if !tn.restored {
			t.Fatal("tenant did not restore from its checkpoint")
		}
		if got, want := tn.walReplayed.Load(), uint64(len(recs)-cut); got != want {
			t.Fatalf("replayed %d WAL records past the checkpoint, want %d", got, want)
		}
		c := &Client{Base: hs.URL, Tenant: "acme"}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		all, err := c.AllAnomalies()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 {
			t.Fatal("no anomalies after the restored life")
		}
		raw, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if want, got := boot(stateDir), boot(indentedDir); !bytes.Equal(got, want) {
		t.Errorf("the indented checkpoint's life reports differently:\ngot:  %.300s\nwant: %.300s", got, want)
	}
}
