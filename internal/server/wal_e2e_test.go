package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// postNDJSON posts raw NDJSON lines to /v1/ingest and decodes the
// response at any status.
func postNDJSON(t *testing.T, base, tenant, body string) (int, server.IngestResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/ingest?tenant="+tenant, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.IngestResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestIngestDeadLetterAndRequeue pins the batch-poisoning fix end to
// end: a batch carrying malformed records is accepted (202), its valid
// records are delivered, and the bad ones land in the DLQ with
// per-record reasons, listable and (once fixed) requeueable — here they
// stay broken, so requeue reports them failed and leaves them queued.
func TestIngestDeadLetterAndRequeue(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	writeModel(t, modelDir, "acme", logging.Spark)
	l := boot(t, server.Config{
		ModelDir: modelDir, StateDir: stateDir, DefaultFramework: logging.Spark,
	})
	c := l.c

	body := strings.Join([]string{
		`{"message":"task 1 ok","sessionId":"app-1"}`,
		`{"message":"task 2 ok","sessionId":"app-1"}`,
		`{"message":"truncated json","sessionId":`, // invalid JSON → DLQ
		`{"sessionId":"app-2"}`,                    // no message → DLQ
	}, "\n")
	code, res := postNDJSON(t, l.hs.URL, "acme", body)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, want 202: one bad record must not fail its batch", code)
	}
	if res.Accepted != 2 || res.DeadLettered != 2 {
		t.Fatalf("response %+v, want accepted 2, deadLettered 2", res)
	}

	dlq, err := c.DLQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dlq.Depth != 2 || len(dlq.Entries) != 2 {
		t.Fatalf("DLQ depth %d with %d entries, want 2", dlq.Depth, len(dlq.Entries))
	}
	if !strings.Contains(dlq.Entries[0].Reason, "invalid JSON") {
		t.Fatalf("first entry reason %q, want an invalid-JSON reason", dlq.Entries[0].Reason)
	}
	if !strings.Contains(dlq.Entries[1].Reason, "no message") {
		t.Fatalf("second entry reason %q, want a no-message reason", dlq.Entries[1].Reason)
	}
	if dlq.Entries[0].Line != `{"message":"truncated json","sessionId":` {
		t.Fatalf("DLQ did not store the verbatim wire line: %q", dlq.Entries[0].Line)
	}

	// The records are still broken, so requeue must fail them — and keep
	// them retrievable rather than silently dropping.
	rq, err := c.DLQRequeue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Requeued != 0 || rq.Failed != 2 || rq.Depth != 2 {
		t.Fatalf("requeue of still-broken entries = %+v, want 0 requeued, 2 failed, depth 2", rq)
	}

	// The valid records were really delivered.
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 {
		t.Fatalf("sessions = %d, want the 1 session the valid records formed", rep.Sessions)
	}
}

// TestOversizedRecordDeadLettersNotBatch pins the record-cap semantics:
// a single record past MaxRecordBytes inside an otherwise valid batch is
// dead-lettered with its reason while its neighbors deliver (202, never
// 413) — and after a restart with a raised cap, requeueing it yields a
// detection report byte-identical to a server that ingested everything
// in one clean life. The whole-body cap still 413s.
func TestOversizedRecordDeadLettersNotBatch(t *testing.T) {
	recs := make([]logging.Record, 6)
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i] = logging.Record{
			Time:      base.Add(time.Duration(i) * time.Second),
			Level:     logging.Info,
			Message:   fmt.Sprintf("Registering block manager 10.0.0.%d", i),
			Framework: logging.Spark,
			SessionID: "app-small",
		}
	}
	big := logging.Record{
		Time:      base.Add(10 * time.Second),
		Level:     logging.Info,
		Message:   "huge payload " + strings.Repeat("x", 600),
		Framework: logging.Spark,
		SessionID: "app-big",
	}

	// Reference: a clean server with the default (large) cap sees every
	// record, small ones first — the order the requeue run produces.
	refRep, _ := runServeLeg(t, serveLeg{wire: ndjson, conns: 1, batch: 64, workers: 1},
		conformance.Spec{Framework: logging.Spark}, append(append([]logging.Record(nil), recs...), big))
	want := canonicalize(t, refRep)

	// Life 1: a tight record cap dead-letters the big record only.
	modelDir, stateDir := t.TempDir(), t.TempDir()
	writeModel(t, modelDir, "acme", logging.Spark)
	cfg := server.Config{
		ModelDir: modelDir, StateDir: stateDir,
		DefaultFramework: logging.Spark, MaxRecordBytes: 256,
	}
	l1 := boot(t, cfg)
	c1 := l1.c
	res, err := c1.IngestRecords(append(append([]logging.Record(nil), recs...), big))
	if err != nil {
		t.Fatalf("batch with one oversized record must be 202, got %v", err)
	}
	if res.Accepted != len(recs) || res.DeadLettered != 1 {
		t.Fatalf("response %+v, want %d accepted, 1 dead-lettered", res, len(recs))
	}
	dlq, err := c1.DLQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dlq.Depth != 1 || !strings.Contains(dlq.Entries[0].Reason, "record cap") {
		t.Fatalf("DLQ = %+v, want the oversized record with a record-cap reason", dlq)
	}
	// No checkpoint: the acked records and the dead letter survive the
	// kill purely through the WAL and the DLQ segments.
	l1.kill()

	// Life 2: the cap is raised; the dead letter requeues cleanly and the
	// stream converges with the clean run.
	cfg.MaxRecordBytes = 0 // default 1 MiB
	l2 := boot(t, cfg)
	c2 := l2.c
	rq, err := c2.DLQRequeue(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Requeued != 1 || rq.Failed != 0 || rq.Depth != 0 {
		t.Fatalf("requeue under the raised cap = %+v, want 1 requeued, depth 0", rq)
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalize(t, &rep); !bytes.Equal(got, want) {
		t.Fatalf("requeued stream diverges from clean ingest\nclean:\n%s\nrequeued:\n%s", want, got)
	}

	// The whole-body budget keeps its non-retryable 413.
	tiny := boot(t, server.Config{
		ModelDir: modelDir, DefaultFramework: logging.Spark, MaxBodyBytes: 128,
	})
	code, _ := postNDJSON(t, tiny.hs.URL, "acme",
		`{"message":"`+strings.Repeat("y", 400)+`","sessionId":"s"}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body past MaxBodyBytes answered %d, want 413", code)
	}
}
