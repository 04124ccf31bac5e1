package server_test

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"intellog/internal/logging"
	"intellog/internal/server"
)

// TestDLQRequeueIdempotent pins requeue-twice semantics: once a seq
// range has been requeued (and tombstoned), replaying the same requeue
// request must be a no-op — no duplicate records reach the detector,
// and the tombstones survive a restart.
func TestDLQRequeueIdempotent(t *testing.T) {
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	big := func(i int) logging.Record {
		return logging.Record{
			Time:      base.Add(time.Duration(i) * time.Second),
			Level:     logging.Info,
			Message:   fmt.Sprintf("oversized payload %d ", i) + strings.Repeat("x", 600),
			Framework: logging.Spark,
			SessionID: "app-big",
		}
	}

	modelDir, stateDir := t.TempDir(), t.TempDir()
	writeModel(t, modelDir, "acme", logging.Spark)
	cfg := server.Config{
		ModelDir: modelDir, StateDir: stateDir,
		DefaultFramework: logging.Spark, MaxRecordBytes: 256,
	}
	l1 := boot(t, cfg)
	c1 := l1.c
	if _, err := c1.IngestRecords([]logging.Record{big(0), big(1)}); err != nil {
		t.Fatal(err)
	}
	dlq, err := c1.DLQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dlq.Depth != 2 {
		t.Fatalf("DLQ depth %d, want 2", dlq.Depth)
	}
	seqs := []uint64{dlq.Entries[0].Seq, dlq.Entries[1].Seq}
	l1.kill()

	// Raise the cap: the dead letters become requeueable.
	cfg.MaxRecordBytes = 0
	l2 := boot(t, cfg)
	c2 := l2.c
	rq, err := c2.DLQRequeue(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Requeued != 2 || rq.Failed != 0 || rq.Depth != 0 {
		t.Fatalf("first requeue = %+v, want 2 requeued, depth 0", rq)
	}
	// Same cursor range again: the seqs are tombstoned, so nothing moves.
	for i := 0; i < 2; i++ {
		rq, err = c2.DLQRequeue(seqs)
		if err != nil {
			t.Fatal(err)
		}
		if rq.Requeued != 0 || rq.Failed != 0 || rq.Depth != 0 {
			t.Fatalf("repeat requeue %d = %+v, want a no-op", i, rq)
		}
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1: repeat requeues must not re-deliver records", rep.Sessions)
	}
	l2.kill()

	// Tombstones persisted: a successor over the same state dir boots
	// with an empty queue, and requeue is still a no-op.
	l3 := boot(t, cfg)
	c3 := l3.c
	dlq, err = c3.DLQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dlq.Depth != 0 || len(dlq.Entries) != 0 {
		t.Fatalf("restarted DLQ = %+v, want empty: tombstones must survive the restart", dlq)
	}
	if rq, err = c3.DLQRequeue(seqs); err != nil || rq.Requeued != 0 || rq.Depth != 0 {
		t.Fatalf("post-restart requeue = %+v (%v), want a no-op", rq, err)
	}
}

// TestDLQPaginationPageBoundary pins the cursor behavior when a page
// ends exactly at the last live entry: the final full page returns the
// terminal cursor, and the page after it is empty with the cursor
// unmoved.
func TestDLQPaginationPageBoundary(t *testing.T) {
	modelDir := t.TempDir()
	writeModel(t, modelDir, "acme", logging.Spark)
	l := boot(t, server.Config{ModelDir: modelDir, DefaultFramework: logging.Spark})
	c := l.c

	// Six invalid lines → six dead letters.
	const n = 6
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf(`{"message":"bad %d","sessionId":`, i))
	}
	code, res := postNDJSON(t, l.hs.URL, "acme", strings.Join(lines, "\n"))
	if code != http.StatusAccepted || res.DeadLettered != n {
		t.Fatalf("status %d, dead-lettered %d, want 202 with %d", code, res.DeadLettered, n)
	}

	// One page of exactly n: the cursor lands on the last entry.
	page, err := c.DLQ(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != n || page.Depth != n {
		t.Fatalf("page = %d entries depth %d, want %d", len(page.Entries), page.Depth, n)
	}
	last := page.Entries[n-1].Seq
	if page.Next != last {
		t.Fatalf("full-page cursor = %d, want last seq %d", page.Next, last)
	}

	// The page after the boundary is empty and does not move the cursor.
	empty, err := c.DLQ(page.Next, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Entries) != 0 || empty.Next != page.Next {
		t.Fatalf("past-the-end page = %d entries next %d, want 0 entries, cursor %d",
			len(empty.Entries), empty.Next, page.Next)
	}

	// Walking at limit n-1 splits n entries into a full page and a
	// single-entry page whose cursor equals the boundary cursor.
	first, err := c.DLQ(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Entries) != n-1 {
		t.Fatalf("first page = %d entries, want %d", len(first.Entries), n-1)
	}
	second, err := c.DLQ(first.Next, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Entries) != 1 || second.Next != last {
		t.Fatalf("second page = %d entries next %d, want 1 entry ending at %d",
			len(second.Entries), second.Next, last)
	}
}

// TestDLQRecordsCounterFromLoad: a freshly loaded tenant's /metrics
// carries intellogd_dlq_records_total at 0, so a rate over it is defined
// before the first dead letter, and the series counts the dead letters
// that follow.
func TestDLQRecordsCounterFromLoad(t *testing.T) {
	modelDir := t.TempDir()
	writeModel(t, modelDir, "acme", logging.Spark)
	l := boot(t, server.Config{ModelDir: modelDir, DefaultFramework: logging.Spark})
	c := l.c
	const series = `intellogd_dlq_records_total{tenant="acme"} `

	if _, err := c.DLQ(0, 0); err != nil { // loads the tenant
		t.Fatal(err)
	}
	if m, err := c.Metrics(); err != nil || !strings.Contains(m, series+"0\n") {
		t.Fatalf("fresh tenant's /metrics lacks %q0 (err %v)", series, err)
	}
	if code, res := postNDJSON(t, l.hs.URL, "acme", `{"message":"bad","sessionId":`); code != http.StatusAccepted || res.DeadLettered != 1 {
		t.Fatalf("status %d, dead-lettered %d, want 202 with 1", code, res.DeadLettered)
	}
	if m, err := c.Metrics(); err != nil || !strings.Contains(m, series+"1\n") {
		t.Fatalf("/metrics lacks %q1 after one dead letter (err %v)", series, err)
	}
}
