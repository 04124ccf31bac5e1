package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"intellog/internal/batch"
	"intellog/internal/logging"
	"intellog/internal/wal"
)

// TestStreamIdlePeerClosed: a peer that completes the Hello and then
// stalls is closed once the idle deadline passes, its connection
// goroutine exits, and no pooled batch is left behind.
func TestStreamIdlePeerClosed(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.streamIdle = time.Second
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	c := &Client{Tenant: "acme"}
	sc, err := c.DialStream(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Send(sparkRecs("sess-a", 3)); err != nil {
		t.Fatal(err)
	}
	// Stall. The server must hang up well inside this read's deadline.
	sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := sc.br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("stalled peer's read = %v, want EOF from the server closing it", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.streamMu.Lock()
		live := len(s.streamConns)
		s.streamMu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stream connection goroutines still running", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	tn.control(func() {}, true) // the admitted batch is consumed
	if got := scrapeValue(t, hs.URL, "intellogd_batch_pool_outstanding"); got != 0 {
		t.Fatalf("intellogd_batch_pool_outstanding = %v, want 0", got)
	}
}

// TestWALEntryIsAppendBatch: the ingest path logs the encoding it
// received, and that is no format change — every WAL entry, written
// from ILS1 frames (one with records that take the Hello's framework,
// are skipped or dead-lettered) and from NDJSON bodies, is byte-equal to
// wal.AppendBatch of the records the entry decodes to.
func TestWALEntryIsAppendBatch(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, addr := bootStreamServer(t, Config{ModelDir: modelDir, StateDir: stateDir, WALSync: "none"})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme"}
	sc, err := c.DialStream(addr, logging.Spark)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	mixed := sparkRecs("sess-a", 6)
	mixed[1].Framework = ""     // takes the Hello's framework
	mixed[2].SessionID = ""     // skipped
	mixed[3].Message = ""       // dead-lettered
	mixed[4].Time = time.Time{} // the zero-time sentinel
	mixed[5].Time = mixed[5].Time.In(time.FixedZone("", -3*3600))
	for _, recs := range [][]logging.Record{sparkRecs("sess-b", 40), mixed} {
		if _, err := sc.Send(recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.IngestRecords(sparkRecs("sess-c", 25)); err != nil {
		t.Fatal(err)
	}
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	tn.control(func() {}, true)

	segs, err := filepath.Glob(filepath.Join(s.walDir("acme"), "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("wal segments %v (%v), want one", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	entries, records := 0, 0
	for r := bytes.NewReader(raw); r.Len() > 0; {
		_, body, _, err := wal.ReadFrame(r, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		seq, count, recBytes, err := wal.ParseBatchHeader(body)
		if err != nil {
			t.Fatal(err)
		}
		recs := decodeBody(count, recBytes)
		if recs == nil {
			t.Fatalf("entry at seq %d does not decode to its %d records", seq, count)
		}
		if want := wal.AppendBatch(nil, seq, recs); !bytes.Equal(body, want) {
			t.Fatalf("entry at seq %d differs from wal.AppendBatch of its records", seq)
		}
		for i := range recs {
			if recs[i].Framework != logging.Spark {
				t.Fatalf("entry at seq %d: record %d has framework %q", seq, i, recs[i].Framework)
			}
		}
		entries++
		records += count
	}
	if entries != 3 || records != 40+4+25 {
		t.Fatalf("%d entries of %d records, want 3 of %d", entries, records, 40+4+25)
	}
}

// TestServedRecordsProbedOnce: each served record costs exactly one
// lookup-cache probe — over ILS1, over NDJSON, and again at WAL replay
// — so intellogd_lookup_cache_{hits,misses} add up to the records
// consumed.
func TestServedRecordsProbedOnce(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	cfg := Config{ModelDir: modelDir, StateDir: stateDir, WALSync: "none"}
	s, addr := bootStreamServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme"}
	sc, err := c.DialStream(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	probes := func(tn *tenant) uint64 {
		hits, misses := tn.det.Cache.Stats()
		return hits + misses
	}
	const nBin, nJSON = 300, 200
	for lo := 0; lo < nBin; lo += 100 {
		if _, err := sc.Send(sparkRecs("sess-bin", 100)); err != nil {
			t.Fatal(err)
		}
	}
	tn.control(func() {}, true)
	if got := probes(tn); got != nBin {
		t.Fatalf("ILS1: %d probes for %d records", got, nBin)
	}
	for lo := 0; lo < nJSON; lo += 100 {
		if _, err := c.IngestRecords(sparkRecs("sess-json", 100)); err != nil {
			t.Fatal(err)
		}
	}
	tn.control(func() {}, true)
	if got := probes(tn); got != nBin+nJSON {
		t.Fatalf("NDJSON: %d probes for %d records", got, nBin+nJSON)
	}
	sc.Close()
	s.Kill()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn2.walReplayed.Load(); got != nBin+nJSON {
		t.Fatalf("replayed %d records, want %d", got, nBin+nJSON)
	}
	if got := probes(tn2); got != nBin+nJSON {
		t.Fatalf("WAL replay: %d probes for %d records", got, nBin+nJSON)
	}
}

// TestStreamEdgeAllocs: the ILS1 edge admits an all-valid frame in a
// constant number of allocations, whatever its record count — none, once
// the batch pool is warm: no record is materialized on the ack path.
// The tenant's worker is parked so only the connection goroutine's work
// is counted, and the pool is pre-warmed with the batches the parked
// queue will hold (a draining worker would hand them back instead).
func TestStreamEdgeAllocs(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir, QueueRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	defer close(release)
	var warm []*batch.Batch
	for i := 0; i < 64; i++ {
		warm = append(warm, s.batches.Get())
	}
	for _, b := range warm {
		b.Release()
	}

	perFrame := map[int]float64{}
	for _, n := range []int{64, 512} {
		body := wal.AppendBatch(nil, 1, sparkRecs("sess-a", n))
		admit := func() {
			seq, count, recs, err := wal.ParseBatchHeader(body)
			if err != nil {
				t.Fatal(err)
			}
			b := s.batches.Get()
			skipped, dead, err := s.filterBatch(logging.Spark, count, recs, b)
			if err != nil {
				t.Fatal(err)
			}
			if ack := s.admitStreamBatch(tn, seq, b, skipped, dead); ack.Status != ackAccepted || ack.Accepted != n {
				t.Fatalf("ack = %+v", ack)
			}
		}
		perFrame[n] = testing.AllocsPerRun(20, admit)
	}
	t.Logf("allocations per admitted frame: %v", perFrame)
	if perFrame[512] != 0 || perFrame[64] != 0 {
		t.Fatalf("allocations per admitted frame: %v, want none", perFrame)
	}
}

// FuzzNDJSONIngest is FuzzWireFrame's NDJSON counterpart: for every
// body, the production edge (the fast path with its encoding/json
// fallback) and the plain reference (encoding/json alone, then the same
// rules) must agree on the accepted, skipped and dead-lettered counts,
// and the batch body must decode to exactly the reference records.
func FuzzNDJSONIngest(f *testing.F) {
	for _, rec := range wireRecords() {
		if line, ok := appendWireRecord(nil, &rec); ok {
			f.Add(line)
		}
		j, _ := json.Marshal(WireRecord{Record: rec})
		f.Add(j)
	}
	f.Add([]byte(`{"Message":"m","SessionID":"s"}` + "\n" + `{"Message":"","SessionID":"s"}` + "\n" + `{"Message":"m"}`))
	f.Add([]byte(`{"line":"19/03/01 08:00:41 INFO Executor: Starting executor in container_1551400000000_0009_01_000001"}` + "\n" +
		`{"line":"19/03/01 08:00:42 INFO Executor: Finished task"}` + "\n" + `{"line":"garbage"}`))
	f.Add([]byte(`{"Time":"2026-03-01T12:00:00+05:30","Level":-2,"Message":"é","SessionID":"s","Framework":"tez"}`))
	f.Add([]byte(`{"message":"lowercase","SessionID":"s","Level":1.5}` + "\n" + `not json` + "\n" + `{"Message":"with \"escape\"","SessionID":"s"}`))

	s := edgeServer(96)
	pool := batch.NewPool(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		lines := ndjsonLines(body)
		want := refNDJSON(s, logging.Spark, lines)
		got, b := edgeNDJSON(s, pool, logging.Spark, lines)
		assertSameEdge(t, got, want, b.N)
		b.Release()
	})
}
