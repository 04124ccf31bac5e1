package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"intellog/internal/logging"
)

// gateWorkers parks every worker of tn at a control barrier, so queued
// records stay queued until the returned release is called; release
// then waits for the queue to drain.
func gateWorkers(t *testing.T, tn *tenant) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	go tn.control(func() { close(entered); <-gate }, true)
	<-entered
	return func() {
		close(gate)
		if !tn.control(func() {}, true) {
			t.Fatal("drain barrier refused")
		}
	}
}

// withNoSession is n valid records of session sess plus one record that
// carries a message but no session, which ingest skips.
func withNoSession(sess string, n int) []logging.Record {
	recs := testRecords(sess, n)
	return append(recs, logging.Record{Message: "no session here", Framework: logging.Spark})
}

// TestSkippedCountedOnAcceptance pins that a batch's skipped lines count
// once, when the batch is admitted: a 429-refused NDJSON batch is
// retried verbatim, a held ILS1 frame is admitted again as the queue
// drains, and counting on every attempt would double them.
func TestSkippedCountedOnAcceptance(t *testing.T) {
	t.Run("ndjson", func(t *testing.T) {
		modelDir := t.TempDir()
		saveSparkModel(t, modelDir, "acme")
		s, err := New(Config{ModelDir: modelDir, QueueRecords: 4})
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
		release := gateWorkers(t, tn)

		c := &Client{Base: hs.URL, Tenant: "acme"}
		if _, err := c.IngestRecords(testRecords("sess-a", 3)); err != nil {
			t.Fatalf("first batch refused: %v", err)
		}
		batch := withNoSession("sess-b", 2)
		if _, err := c.IngestRecords(batch); !errors.As(err, new(ErrQueueFull)) {
			t.Fatalf("over-budget batch: err = %v, want ErrQueueFull", err)
		}
		release()
		resp, err := c.IngestRecords(batch)
		if err != nil || resp.Accepted != 2 || resp.Skipped != 1 {
			t.Fatalf("retried batch: resp=%+v err=%v, want 2 accepted, 1 skipped", resp, err)
		}
		if got := tn.skipped.Load(); got != 1 {
			t.Fatalf("skipped = %d after one refusal and one acceptance, want 1", got)
		}
	})

	t.Run("ils1", func(t *testing.T) {
		s, addr := bootStreamServer(t, Config{QueueRecords: 4})
		sc, err := (&Client{Tenant: "acme"}).DialStream(addr, "")
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		tn, err := s.Tenant("acme")
		if err != nil {
			t.Fatal(err)
		}
		release := gateWorkers(t, tn)

		if _, err := sc.Send(testRecords("sess-a", 3)); err != nil {
			t.Fatalf("first batch refused: %v", err)
		}
		// Over budget, the frame is held rather than refused, and its
		// admission may be retried more than once as the queue drains.
		type result struct {
			resp IngestResponse
			err  error
		}
		done := make(chan result, 1)
		go func() {
			resp, err := sc.Send(withNoSession("sess-b", 2))
			done <- result{resp, err}
		}()
		release()
		r := <-done
		if r.err != nil || r.resp.Accepted != 2 || r.resp.Skipped != 1 {
			t.Fatalf("held batch: resp=%+v err=%v, want 2 accepted, 1 skipped", r.resp, r.err)
		}
		if got := tn.skipped.Load(); got != 1 {
			t.Fatalf("skipped = %d after the held batch's acceptance, want 1", got)
		}
	})
}

// scrapeValue reads one series' sample off /metrics, series being the
// name plus any label block (0 when the series is absent).
func scrapeValue(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// TestWALAppendFailureOnEveryPath breaks the write-ahead log under a
// live tenant — its directory vanishes, so the next segment rotation
// fails — and drives every admission path into it. Each must answer a
// hard failure, never an ack, and leave nothing behind: no reserved
// queue budget, no rented batch, no requeued dead letter.
func TestWALAppendFailureOnEveryPath(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	saveSparkModel(t, modelDir, "acme")

	// First life: dead-letter one record under a tight record cap; the
	// DLQ persists it across the restart.
	s1, err := New(Config{ModelDir: modelDir, StateDir: stateDir, MaxRecordBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	big := testRecords("sess-dlq", 1)
	big[0].Message = strings.Repeat("x", 300)
	resp, err := (&Client{Base: hs1.URL, Tenant: "acme"}).IngestRecords(big)
	if err != nil || resp.DeadLettered != 1 {
		t.Fatalf("oversized record: resp=%+v err=%v, want 1 dead-lettered", resp, err)
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the default cap makes the dead letter requeueable,
	// and the smallest segment size makes the next append rotate.
	s, addr := bootStreamServer(t, Config{ModelDir: modelDir, StateDir: stateDir, WALSegmentBytes: 4096})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme"}
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestRecords(testRecords("sess-a", 100)); err != nil {
		t.Fatalf("filling the first segment: %v", err)
	}
	if !tn.control(func() {}, true) {
		t.Fatal("drain barrier refused")
	}
	if err := os.RemoveAll(s.walDir("acme")); err != nil {
		t.Fatal(err)
	}

	failed := 0
	assertClean := func(path string) {
		t.Helper()
		failed++
		errs := scrapeValue(t, hs.URL, `intellogd_wal_append_errors_total{tenant="acme"}`)
		if errs != float64(failed) {
			t.Errorf("%s: wal_append_errors_total = %v, want %d", path, errs, failed)
		}
		if got := tn.pending.Load(); got != 0 {
			t.Errorf("%s: pending = %d after the refusal, want 0", path, got)
		}
		if got := scrapeValue(t, hs.URL, "intellogd_batch_pool_outstanding"); got != 0 {
			t.Errorf("%s: batch_pool_outstanding = %v, want 0", path, got)
		}
	}

	_, err = c.IngestRecords(testRecords("sess-b", 3))
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "write-ahead log failed") {
		t.Fatalf("NDJSON over a failed WAL: err = %v, want a 500 naming the WAL", err)
	}
	assertClean("ndjson")

	sc, err := (&Client{Tenant: "acme"}).DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_, err = sc.Send(testRecords("sess-c", 3))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("(%d): write-ahead log failed; batch not accepted", ackShutdown)) {
		t.Fatalf("ILS1 over a failed WAL: err = %v, want a %d ack naming the WAL", err, ackShutdown)
	}
	assertClean("ils1")

	if depth := tn.dlq.Depth(); depth != 1 {
		t.Fatalf("DLQ depth = %d before requeue, want 1", depth)
	}
	_, err = c.DLQRequeue(nil)
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "nothing requeued") {
		t.Fatalf("requeue over a failed WAL: err = %v, want a 500", err)
	}
	if depth := tn.dlq.Depth(); depth != 1 {
		t.Fatalf("DLQ depth = %d after the failed requeue, want 1 (unchanged)", depth)
	}
	assertClean("requeue")
}
