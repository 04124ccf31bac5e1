package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/logging"
)

// bootStreamServer builds a Server with the spark reference model for
// tenant "acme" and exposes its binary ingest listener.
func bootStreamServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.ModelDir == "" {
		cfg.ModelDir = t.TempDir()
		saveSparkModel(t, cfg.ModelDir, "acme")
	}
	if cfg.DefaultFramework == "" {
		cfg.DefaultFramework = logging.Spark
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeStream(ln)
	return s, ln.Addr().String()
}

func sparkRecs(session string, n int) []logging.Record {
	recs := make([]logging.Record, n)
	for i := range recs {
		recs[i] = logging.Record{
			Time:      time.Date(2026, 3, 1, 12, 0, i, 0, time.UTC),
			Level:     logging.Info,
			Source:    "BlockManager",
			Message:   fmt.Sprintf("Registering block manager 10.0.0.%d", i),
			Framework: logging.Spark,
			SessionID: session,
		}
	}
	return recs
}

// pipelineFrame writes one Batch frame on sc under the next seq without
// waiting for its ack, and returns the seq.
func pipelineFrame(t *testing.T, sc *StreamConn, recs []logging.Record) uint64 {
	t.Helper()
	sc.seq++
	if err := sc.sendBatchFrame(sc.seq, recs); err != nil {
		t.Fatal(err)
	}
	if err := sc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return sc.seq
}

// TestStreamFullQueueHoldsFrames drives the hold deterministically: park
// the tenant's workers at the control barrier, fill the record budget,
// and pipeline three more frames from two connections. None is refused
// and none is acked while the workers are parked; once they resume,
// every frame is acked 202 in its connection's order, each record is
// admitted exactly once, and every pooled batch comes back.
func TestStreamFullQueueHoldsFrames(t *testing.T) {
	s, addr := bootStreamServer(t, Config{QueueRecords: 100})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Tenant: "acme"}
	sa, err := c.DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := c.DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}

	started, release := make(chan struct{}), make(chan struct{})
	go tn.control(func() {
		close(started)
		<-release
	}, true)
	<-started

	// 60 + 40 records fill the 100-record budget exactly.
	if resp, err := sa.Send(sparkRecs("sess-a", 60)); err != nil || resp.Accepted != 60 {
		t.Fatalf("first batch: resp=%+v err=%v", resp, err)
	}
	if resp, err := sb.Send(sparkRecs("sess-b", 40)); err != nil || resp.Accepted != 40 {
		t.Fatalf("second batch: resp=%+v err=%v", resp, err)
	}
	a2 := pipelineFrame(t, sa, sparkRecs("sess-a", 10))
	a3 := pipelineFrame(t, sa, sparkRecs("sess-a", 10))
	b2 := pipelineFrame(t, sb, sparkRecs("sess-b", 10))

	// While the workers are parked no verdict may come back: a held frame
	// is neither refused nor acked.
	for _, sc := range []*StreamConn{sa, sb} {
		sc.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if ack, err := sc.readAck(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("ack while the queue is full: %+v, err %v", ack, err)
		}
		sc.conn.SetReadDeadline(time.Time{})
	}
	if got := tn.records.Load(); got != 100 {
		t.Fatalf("records = %d while parked, want the 100 the budget holds", got)
	}

	close(release)
	for _, f := range []struct {
		sc  *StreamConn
		seq uint64
	}{{sa, a2}, {sa, a3}, {sb, b2}} {
		if resp, err := f.sc.awaitAck(f.seq); err != nil || resp.Accepted != 10 {
			t.Fatalf("held frame seq %d: resp=%+v err=%v", f.seq, resp, err)
		}
	}
	if !tn.control(func() {}, true) {
		t.Fatal("drain barrier refused")
	}
	if got := tn.records.Load(); got != 130 {
		t.Fatalf("records = %d, want the 130 sent (no loss, no duplication)", got)
	}
	if got := tn.rejected.Load(); got != 0 {
		t.Fatalf("rejected = %d, want 0: a stream frame is held, never refused", got)
	}
	if got := scrapeValue(t, hs.URL, "intellogd_batch_pool_outstanding"); got != 0 {
		t.Fatalf("batch_pool_outstanding = %v after the drain, want 0", got)
	}
}

// TestStreamConnSurvivesEviction: a stream connection resolves its
// tenant once, at Hello. When an HTTP request loads another tenant and
// evicts it, the connection's next frame finds the held instance closed,
// resolves the tenant again and is admitted into the reloaded instance,
// which restored the evicted state from its checkpoint: the report over
// both halves equals batch detection.
func TestStreamConnSurvivesEviction(t *testing.T) {
	spec := conformance.DefaultMatrix()[0] // spark-clean
	corpus := spec.Generate()
	m := conformance.ModelFor(spec.Framework)
	want, err := conformance.Canonicalize(conformance.BatchPath(m.Detector(), corpus.Records))
	if err != nil {
		t.Fatal(err)
	}

	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "a")
	saveSparkModel(t, modelDir, "b")
	s, addr := bootStreamServer(t, Config{ModelDir: modelDir, StateDir: t.TempDir(), MaxTenants: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ca := &Client{Base: hs.URL, Tenant: "a"}
	sc, err := ca.DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	send := func(recs []logging.Record) {
		t.Helper()
		for off := 0; off < len(recs); off += 256 {
			batch := recs[off:min(off+256, len(recs))]
			if resp, err := sc.Send(batch); err != nil || resp.Accepted != len(batch) {
				t.Fatalf("frame %d: resp=%+v err=%v", sc.seq, resp, err)
			}
		}
	}
	half := len(corpus.Records) / 2
	send(corpus.Records[:half])
	held, err := s.Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Client{Base: hs.URL, Tenant: "b"}).Flush(); err != nil {
		t.Fatalf("loading b: %v", err)
	}
	if n := len(s.resident()); n != 1 || s.resident()[0].name != "b" {
		t.Fatal("loading b did not evict a")
	}

	send(corpus.Records[half:])
	if got := held.rejected.Load(); got != 0 {
		t.Fatalf("the evicted instance counted %d rejections", got)
	}
	if _, err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := ca.Report()
	if err != nil {
		t.Fatal(err)
	}
	got, err := conformance.Canonicalize(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report across the eviction diverges from batch detection\nbatch:\n%s\nserved:\n%s", want, got)
	}
}

// TestStreamReplayBackpressureConformance proves detection semantics
// survive real backpressure: a replay into a queue one-half the
// in-flight window has frames held while the workers are parked, is
// never refused, and still produces a report byte-identical to batch
// detection, with every record accepted exactly once.
func TestStreamReplayBackpressureConformance(t *testing.T) {
	spec := conformance.DefaultMatrix()[0] // spark-clean
	corpus := spec.Generate()
	m := conformance.ModelFor(spec.Framework)
	want, err := conformance.Canonicalize(conformance.BatchPath(m.Detector(), corpus.Records))
	if err != nil {
		t.Fatal(err)
	}

	s, addr := bootStreamServer(t, Config{QueueRecords: 96})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}

	// Park the workers while the first windows land so frames are held
	// (48×4 in flight against a 96-record budget), then let the replay
	// grind through under live drain.
	started, release := make(chan struct{}), make(chan struct{})
	go tn.control(func() {
		close(started)
		<-release
	}, true)
	<-started

	c := &Client{Base: hs.URL, Tenant: "acme"}
	type result struct {
		res ReplayResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := c.ReplayStream(addr, corpus.Records, StreamReplayOptions{
			Batch: 48, Concurrency: 1, Window: 4,
		})
		done <- result{res, err}
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("replay under backpressure: %v", r.err)
	}
	if r.res.Rejected != 0 || tn.rejected.Load() != 0 {
		t.Fatalf("replay saw %d refusals, the tenant counted %d; a full queue must hold frames, not refuse them",
			r.res.Rejected, tn.rejected.Load())
	}
	if r.res.Records != len(corpus.Records) {
		t.Fatalf("replay accepted %d records, corpus has %d", r.res.Records, len(corpus.Records))
	}

	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	got, err := conformance.Canonicalize(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("backpressured report diverges from batch detection\nbatch:\n%s\nserved:\n%s", want, got)
	}
}
