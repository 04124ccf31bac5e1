package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/spell"
)

// saveSparkModel writes the cached spark reference model as tenant name.
func saveSparkModel(t *testing.T, dir, name string) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name+modelExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.ModelFor(logging.Spark).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func testRecords(session string, n int) []logging.Record {
	recs := make([]logging.Record, n)
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i] = logging.Record{
			Time:      base.Add(time.Duration(i) * time.Second),
			Level:     logging.Info,
			Source:    "Test",
			Message:   fmt.Sprintf("test message %d", i),
			SessionID: session,
			Framework: logging.Spark,
		}
	}
	return recs
}

// enqueueRecords is tenant.admit over a plain record slice: it copies
// recs into a rented batch (which admit owns from then on) and reports
// whether the batch was admitted.
func (t *tenant) enqueueRecords(recs []logging.Record) (bool, error) {
	b := t.srv.batches.Get()
	b.Recs = append(b.Recs, recs...)
	verdict, err := t.admit(b, 0, nil)
	return verdict == admitted, err
}

// TestBackpressure429 fills a tiny ingest queue behind a gated worker and
// proves admission control: the overflowing batch gets a typed 429 with
// Retry-After, queued records never exceed the budget (no unbounded
// buffering), and ingest recovers once the worker drains.
func TestBackpressure429(t *testing.T) {
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
	// Gate the worker so queued records stay queued deterministically.
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		if !tn.control(func() { close(entered); <-release }, true) {
			t.Error("gate control refused")
		}
	}()
	<-entered

	c := &Client{Base: hs.URL, Tenant: "acme"}
	if _, err := c.IngestRecords(testRecords("sess-a", 3)); err != nil {
		t.Fatalf("first batch within budget refused: %v", err)
	}
	_, err = c.IngestRecords(testRecords("sess-b", 3))
	qf, ok := err.(ErrQueueFull)
	if !ok {
		t.Fatalf("overflow batch: got err %v, want ErrQueueFull", err)
	}
	if qf.RetryAfter <= 0 {
		t.Fatalf("429 carried no usable Retry-After: %v", qf.RetryAfter)
	}
	if got := tn.pending.Load(); got != 3 {
		t.Fatalf("pending records = %d after refusal, want 3 (refused batch must not buffer)", got)
	}
	if got := tn.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// Recovery: release the worker, wait for the drain, ingest again.
	close(release)
	if !tn.control(func() {}, true) {
		t.Fatal("control barrier refused")
	}
	if got := tn.pending.Load(); got != 0 {
		t.Fatalf("pending records = %d after drain, want 0", got)
	}
	if _, err := c.IngestRecords(testRecords("sess-b", 3)); err != nil {
		t.Fatalf("post-drain batch refused: %v", err)
	}
}

// TestLRUEviction proves the resident-tenant cap: loading past
// MaxTenants drains and checkpoints the least-recently-used tenant, and
// touching it again restores from that checkpoint (stream state intact).
func TestLRUEviction(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	for _, name := range []string{"a", "b", "c"} {
		saveSparkModel(t, modelDir, name)
	}
	s, err := New(Config{ModelDir: modelDir, StateDir: stateDir, MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ta, err := s.Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ta.enqueueRecords(testRecords("sess-1", 2)); err != nil || !ok {
		t.Fatalf("enqueue refused (ok=%v err=%v)", ok, err)
	}
	if !ta.control(func() {}, true) {
		t.Fatal("drain barrier refused")
	}
	if _, err := s.Tenant("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tenant("c"); err != nil { // evicts a
		t.Fatal(err)
	}
	if n := len(s.resident()); n != 2 {
		t.Fatalf("resident tenants = %d, want 2", n)
	}
	ckpt := filepath.Join(stateDir, "a"+checkpointExt)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("eviction left no checkpoint for a: %v", err)
	}

	ta2, err := s.Tenant("a") // reload; evicts b
	if err != nil {
		t.Fatal(err)
	}
	if ta2 == ta {
		t.Fatal("reload returned the evicted instance")
	}
	if !ta2.restored {
		t.Fatal("reloaded tenant did not restore from its checkpoint")
	}
	if got := ta2.sd.SessionsSeen(); got != 1 {
		t.Fatalf("restored SessionsSeen = %d, want 1", got)
	}
	if n := len(s.resident()); n != 2 {
		t.Fatalf("resident tenants = %d after reload, want 2", n)
	}
}

// TestAnomalyLogPaging exercises the sink: dense cursor paging, the
// retention trim, and the dropped count that distinguishes a trimmed gap
// from a quiet stream.
func TestAnomalyLogPaging(t *testing.T) {
	l := newAnomalyLog(0)
	var batch []detect.Anomaly
	for seq := uint64(1); seq <= 10; seq++ {
		batch = append(batch, detect.Anomaly{Seq: seq, Session: fmt.Sprintf("s%d", seq)})
	}
	l.append(batch)

	page, next, dropped := l.after(0, 3)
	if len(page) != 3 || next != 3 || dropped != 0 {
		t.Fatalf("after(0,3) = %d entries, next %d, dropped %d; want 3, 3, 0", len(page), next, dropped)
	}
	if page[0].Seq != 1 || page[2].Seq != 3 {
		t.Fatalf("page seqs = %d..%d, want 1..3", page[0].Seq, page[2].Seq)
	}
	page, next, _ = l.after(next, 0)
	if len(page) != 7 || next != 10 {
		t.Fatalf("after(3,∞) = %d entries, next %d; want 7, 10", len(page), next)
	}
	page, next, _ = l.after(10, 0)
	if len(page) != 0 || next != 10 {
		t.Fatalf("after(10,∞) = %d entries, next %d; want 0, 10", len(page), next)
	}

	// Retention: cap at 4 → seqs 1..6 trimmed; a stale cursor resumes at
	// the window start and the response says how much is gone.
	trimmed := newAnomalyLog(4)
	trimmed.append(batch)
	page, next, dropped = trimmed.after(2, 0)
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(page) != 4 || page[0].Seq != 7 || next != 10 {
		t.Fatalf("stale cursor page = %d entries from seq %d, next %d; want 4 from 7, next 10",
			len(page), page[0].Seq, next)
	}
}

// TestAnomalyLogCursorOverflow pins the cursor clamp: a client-supplied
// since near MaxUint64 must land past the retained window (empty page,
// cursor echoed back), not overflow int and panic indexing.
func TestAnomalyLogCursorOverflow(t *testing.T) {
	l := newAnomalyLog(0)
	l.append([]detect.Anomaly{{Seq: 1}, {Seq: 2}, {Seq: 3}})
	for _, since := range []uint64{3, 4, 1 << 40, math.MaxUint64 - 1, math.MaxUint64} {
		page, next, _ := l.after(since, 0)
		if len(page) != 0 || next != since {
			t.Fatalf("after(%d) = %d entries, next %d; want 0 entries, next %d",
				since, len(page), next, since)
		}
	}
}

// TestOversizedBatch413 proves a batch larger than the entire queue
// budget is refused with a non-retryable 413, not the retryable 429 that
// would loop clients forever on a permanently unacceptable request.
func TestOversizedBatch413(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir, QueueRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	c := &Client{Base: hs.URL, Tenant: "acme"}
	_, err = c.IngestRecords(testRecords("sess-a", 5))
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized batch: err %v, want HTTP 413", err)
	}
	if _, ok := err.(ErrQueueFull); ok {
		t.Fatal("oversized batch surfaced as retryable ErrQueueFull")
	}
	if _, err := c.IngestRecords(testRecords("sess-a", 4)); err != nil {
		t.Fatalf("exactly-budget batch refused: %v", err)
	}
}

// TestJunkCheckpointIgnored boots a server over a state dir holding
// checkpoint files with invalid tenant basenames: they are skipped, not
// turned into a startup failure.
func TestJunkCheckpointIgnored(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	for _, junk := range []string{".hidden" + checkpointExt, "bad name" + checkpointExt} {
		if err := os.WriteFile(filepath.Join(stateDir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{ModelDir: modelDir, StateDir: stateDir})
	if err != nil {
		t.Fatalf("junk checkpoint files failed boot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStickyRestoredAcrossCheckpoint proves the raw-line sessionizer's
// stickiness survives a checkpoint + kill + restart: an ID-less line
// ingested by the successor process still attributes to the session that
// was active at the cut instead of being dropped.
func TestStickyRestoredAcrossCheckpoint(t *testing.T) {
	modelDir, stateDir := t.TempDir(), t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	cfg := Config{ModelDir: modelDir, StateDir: stateDir}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	c := &Client{Base: hs.URL, Tenant: "acme"}

	body := `{"line": "19/03/01 12:00:01 INFO Executor: starting container_1234567890_0001_01_000001"}`
	resp, err := hs.Client().Post(hs.URL+"/v1/ingest?tenant=acme", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	s.Kill()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	tn, err := s2.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if !tn.restored {
		t.Fatal("tenant did not restore from checkpoint")
	}
	idless := `{"line": "19/03/01 12:00:02 INFO Executor: heartbeat"}`
	resp, err = hs2.Client().Post(hs2.URL+"/v1/ingest?tenant=acme", "application/x-ndjson", strings.NewReader(idless))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tn.control(func() {}, true)
	if got := tn.skipped.Load(); got != 0 {
		t.Fatalf("restored tenant dropped %d ID-less lines; sticky state lost", got)
	}
	if got := tn.records.Load(); got != 1 {
		t.Fatalf("accepted records = %d, want 1", got)
	}
	if got := tn.sd.Pending(); got != 1 {
		t.Fatalf("pending sessions = %d, want 1 (ID-less line must join the restored session)", got)
	}
}

// TestIngestFrameworkParam pins the ?framework= contract on the raw-line
// path: unknown names are rejected up front, and a known name selects
// the parser for raw lines instead of being silently ignored in favor of
// the tenant default.
func TestIngestFrameworkParam(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := hs.Client().Post(hs.URL+"/v1/ingest?tenant=acme&framework=nope",
		"application/x-ndjson", strings.NewReader(`{"line": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown framework: status %d, want 400", resp.StatusCode)
	}

	// A log4j-format line is unparsable under the spark default but must
	// parse when the request says framework=yarn.
	body := `{"line": "2019-03-01 12:00:00,123 INFO [main] org.apache.hadoop.yarn.NodeManager: starting container_1234567890_0001_01_000001"}`
	resp, err = hs.Client().Post(hs.URL+"/v1/ingest?tenant=acme&framework=yarn",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("yarn raw line: status %d, want 202", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 1 || ir.Skipped != 0 {
		t.Fatalf("yarn raw line: accepted %d, skipped %d; want 1 accepted (formatter must follow the framework parameter)",
			ir.Accepted, ir.Skipped)
	}
}

// TestMetricsEndpoint ingests through HTTP and checks the scrape carries
// the serving-layer series with believable values.
func TestMetricsEndpoint(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	c := &Client{Base: hs.URL, Tenant: "acme"}
	if _, err := c.IngestRecords(testRecords("sess-1", 5)); err != nil {
		t.Fatal(err)
	}
	tn, _ := s.Tenant("acme")
	tn.control(func() {}, true) // drain so gauges are settled

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`intellogd_ingest_records_total{tenant="acme"} 5`,
		`intellogd_ingest_batches_total{tenant="acme"} 1`,
		`intellogd_pending_sessions{tenant="acme"} 1`,
		`intellogd_queue_records{tenant="acme"} 0`,
		`intellogd_resident_tenants 1`,
		"# TYPE intellogd_ingest_records_total counter",
		"# TYPE intellogd_pending_sessions gauge",
		"intellogd_lookup_cache_hits",
		"intellogd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}

// TestAnomalyCountersFromLoad: a freshly loaded tenant's /metrics carries
// intellogd_anomalies_total at 0 for every kind, so the series exist
// before the first finding (ingest acks before the worker applies, so a
// scrape right after an ack must not depend on the apply having run), and
// each kind's series counts the findings that follow.
func TestAnomalyCountersFromLoad(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme"}
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	series := func(k detect.Kind) string {
		return fmt.Sprintf(`intellogd_anomalies_total{kind="%s",tenant="acme"} `, k)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for k := detect.UnexpectedMessage; k <= detect.Overflow; k++ {
		if !strings.Contains(text, series(k)+"0\n") {
			t.Errorf("fresh tenant's /metrics lacks %q0", series(k))
		}
	}

	if _, err := c.IngestRecords(testRecords("sess-1", 5)); err != nil { // 5 unexpected messages
		t.Fatal(err)
	}
	tn.control(func() {}, true)
	if text, err = c.Metrics(); err != nil {
		t.Fatal(err)
	}
	for k := detect.UnexpectedMessage; k <= detect.Overflow; k++ {
		want := series(k) + "0\n"
		if k == detect.UnexpectedMessage {
			want = series(k) + "5\n"
		}
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q after five unexpected messages", want)
		}
	}
}

// TestMetricsLookupCacheOccupancy: /metrics carries each tenant's lookup
// cache occupancy and its doorkeeper declines, and both follow the cache:
// once it is full, a rendering's first sighting is declined.
func TestMetricsLookupCacheOccupancy(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	c := &Client{Base: hs.URL, Tenant: "acme"}
	if _, err := c.IngestRecords(testRecords("sess-1", 5)); err != nil {
		t.Fatal(err)
	}
	tn, _ := s.Tenant("acme")
	tn.control(func() {}, true)
	expect := func(want ...string) {
		t.Helper()
		text, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(text, w) {
				t.Errorf("metrics scrape missing %q", w)
			}
		}
	}
	// Five distinct unmatched renderings: five cached misses.
	expect(
		"# TYPE intellogd_lookup_cache_entries gauge",
		"# TYPE intellogd_lookup_cache_declined_total counter",
		`intellogd_lookup_cache_entries{tenant="acme"} 5`,
		`intellogd_lookup_cache_declined_total{tenant="acme"} 0`,
	)

	cache := tn.det.Cache
	for i := cache.Len(); i < spell.DefaultLookupCacheSize; i++ {
		cache.AddAux(fmt.Sprintf("filler %d", i), nil, nil)
	}
	cache.AddAux("first sighting", nil, nil)
	expect(
		fmt.Sprintf(`intellogd_lookup_cache_entries{tenant="acme"} %d`, spell.DefaultLookupCacheSize),
		`intellogd_lookup_cache_declined_total{tenant="acme"} 1`,
	)
}

// TestTenantErrors maps bad and unknown tenants to 400 and 404.
func TestTenantErrors(t *testing.T) {
	s, err := New(Config{ModelDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for _, tc := range []struct {
		tenant string
		want   string
	}{
		{"", "400"},
		{"../../etc/passwd", "400"},
		{"no-such-tenant", "404"},
	} {
		c := &Client{Base: hs.URL, Tenant: tc.tenant}
		_, err := c.Report()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("tenant %q: err %v, want HTTP %s", tc.tenant, err, tc.want)
		}
	}
}

// TestValidTenantName pins the name filter.
func TestValidTenantName(t *testing.T) {
	for name, want := range map[string]bool{
		"acme":                   true,
		"team-1.prod":            true,
		"A_b-3":                  true,
		"":                       false,
		".hidden":                false,
		"a/../b":                 false,
		"a..b":                   false,
		"with space":             false,
		"slash/inside":           false,
		strings.Repeat("x", 129): false,
	} {
		if got := validTenantName(name); got != want {
			t.Errorf("validTenantName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestRawLineIngest drives the `{"line": ...}` wire mode: raw framework
// lines are parsed and sessionized server-side; unparsable or
// pre-session chatter is skipped and counted, not fatal.
func TestRawLineIngest(t *testing.T) {
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	body := strings.Join([]string{
		`{"line": "19/03/01 12:00:00 INFO Daemon: warming up"}`, // no session yet → skip
		`{"line": "19/03/01 12:00:01 INFO Executor: starting container_1234567890_0001_01_000001"}`,
		`{"line": "19/03/01 12:00:02 INFO Executor: heartbeat"}`, // sticks to current session
		`{"line": "definitely not a spark line"}`,                // parse failure → skip
	}, "\n")
	resp, err := hs.Client().Post(hs.URL+"/v1/ingest?tenant=acme", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	tn, _ := s.Tenant("acme")
	tn.control(func() {}, true)
	if got := tn.records.Load(); got != 2 {
		t.Fatalf("accepted records = %d, want 2", got)
	}
	if got := tn.skipped.Load(); got != 2 {
		t.Fatalf("skipped lines = %d, want 2", got)
	}
	if got := tn.sd.Pending(); got != 1 {
		t.Fatalf("pending sessions = %d, want 1", got)
	}
}
