package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"intellog/internal/conformance"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/spell"
)

// TestAnomalyReadsRenderWithoutMemo: the anomaly log keeps an unexpected
// message as its record and the reads render its extraction. After
// ingest and flush, the tenant detector's cache is swapped for a 1-entry
// one, which drops every memo the emission used; /v1/anomalies,
// /v1/report and every unexpected anomaly's /explain must then serve
// the bodies they served while the memos were cached.
func TestAnomalyReadsRenderWithoutMemo(t *testing.T) {
	spec := conformance.DefaultMatrix()[1] // spark-faulted
	modelDir := t.TempDir()
	saveSparkModel(t, modelDir, "acme")
	s, err := New(Config{ModelDir: modelDir, DefaultFramework: logging.Spark})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme"}
	recs := CorpusFor(spec)
	for off := 0; off < len(recs); off += 256 {
		if _, err := c.IngestRecords(recs[off:min(off+256, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	tn, err := s.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	page := get("/v1/anomalies?tenant=acme&limit=1000000")
	var anomalies AnomaliesResponse
	if err := json.Unmarshal(page, &anomalies); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/v1/anomalies?tenant=acme&limit=1000000", "/v1/report?tenant=acme"}
	for _, e := range anomalies.Anomalies {
		if e.Anomaly.Kind != detect.UnexpectedMessage {
			continue
		}
		if e.Anomaly.Extracted == nil || e.Anomaly.Detail == "" {
			t.Fatalf("anomaly %d served without its extraction: %+v", e.Seq, e.Anomaly)
		}
		paths = append(paths, "/v1/anomalies/"+strconv.FormatUint(e.Seq, 10)+"/explain?tenant=acme")
	}
	if len(paths) == 2 {
		t.Fatalf("%s emitted no unexpected-message anomaly", spec.Name)
	}
	before := make([][]byte, len(paths))
	for i, p := range paths {
		before[i] = get(p)
	}

	tn.det.Cache = spell.NewLookupCache(1)
	for i, p := range paths {
		if got := get(p); !bytes.Equal(got, before[i]) {
			t.Errorf("GET %s changed once the memos were evicted:\n  before: %.300s\n  after:  %.300s", p, before[i], got)
		}
	}
	if n := tn.det.Cache.Len(); n != 0 {
		t.Errorf("reads published %d memos into the swapped cache", n)
	}
	if h, m := tn.det.Cache.Stats(); h != 0 || m != 0 {
		t.Errorf("reads counted %d hits and %d misses on the swapped cache, want none", h, m)
	}
}

// TestAnomalyLogRetainsRecordsOnly pushes distinct unexpected renderings
// through a bounded log whose detector caches a single memo, as the
// daemon's cache would long have evicted them. No retained entry may
// hold Extracted or Detail, and after a collection the log's live heap
// per retained entry must stay within its ring slot (the ring's spare
// capacity included), the record, the record's text and the group
// label (each rounded up to the allocator's 16 B granule), plus 16 B for
// collector noise: ≈ 394 B here. The log reads ≈ 378 B; one that keeps
// the emitted extraction reads ≈ 1,590 B.
func TestAnomalyLogRetainsRecordsOnly(t *testing.T) {
	const retain = 4096
	d := conformance.ModelFor(logging.Spark).Detector()
	d.Cache = spell.NewLookupCache(1)
	sd := detect.NewStream(d, detect.StreamConfig{})
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	textBytes := 0 // the record's text and the group label, rounded up to 16 B
	emit := func(i int) []detect.Anomaly {
		msg := fmt.Sprintf("Totally novel failure %d on host%d:1234 for attempt_%d", i, i%97, i)
		as := sd.Consume(logging.Record{
			Time: t0.Add(time.Duration(i) * time.Millisecond), Level: logging.Error,
			Message: msg, Framework: logging.Spark, SessionID: "sess",
		})
		if len(as) != 1 || as[0].Kind != detect.UnexpectedMessage || as[0].Extracted == nil {
			t.Fatalf("record %d: got %+v, want one unexpected-message anomaly", i, as)
		}
		textBytes = max(textBytes, (len(msg)+15)&^15+(len(as[0].Group)+15)&^15)
		return as
	}
	emit(0) // opens the session and builds the detector's lazy tables

	l := newAnomalyLog(retain)
	l.det = d
	l.prime(2)
	liveHeap := func() float64 {
		// Twice: the first collection only moves pooled objects to the
		// pools' victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	base := liveHeap()
	for i := 1; i <= 3*retain; i++ {
		l.append(emit(i))
	}
	perEntry := (liveHeap() - base) / retain

	if l.len() != retain {
		t.Fatalf("log holds %d entries, want %d", l.len(), retain)
	}
	for i := range retain {
		if a := l.at(i); a.Extracted != nil || a.Detail != "" || a.Record == nil {
			t.Fatalf("retained entry %d holds Extracted %v, Detail %q, Record %v", a.Seq, a.Extracted, a.Detail, a.Record)
		}
	}
	slot := float64(unsafe.Sizeof(detect.Anomaly{})) * float64(cap(l.entries)) / retain
	bound := slot + float64(unsafe.Sizeof(logging.Record{})+uintptr(textBytes)) + 16
	t.Logf("live heap per retained entry %.0f B, bound %.0f B", perEntry, bound)
	if perEntry > bound {
		t.Errorf("live heap per retained entry %.0f B, want at most %.0f B (slot + record + text + group)", perEntry, bound)
	}
	runtime.KeepAlive(sd)
}

// TestAnomalyLogReadsBesideAppends renders while the log is written:
// two readers page through after, all and get while the main goroutine
// consumes distinct unexpected renderings into the log, each a cache miss
// that publishes a memo into a 64-entry cache, so the cache evicts as
// the readers probe it. Every served unexpected anomaly carries its
// extraction and the detail that names its record's text.
func TestAnomalyLogReadsBesideAppends(t *testing.T) {
	d := conformance.ModelFor(logging.Spark).Detector()
	d.Cache = spell.NewLookupCache(64)
	sd := detect.NewStream(d, detect.StreamConfig{})
	l := newAnomalyLog(256)
	l.det = d
	l.prime(1)
	rendered := func(a *detect.Anomaly) bool {
		if a.Kind != detect.UnexpectedMessage {
			return true
		}
		ok := a.Extracted != nil && a.Extracted.Raw == a.Record.Message &&
			a.Detail == fmt.Sprintf("no Intel Key matches %q", a.Record.Message)
		if !ok {
			t.Errorf("anomaly %d served unrendered: Extracted %v, Detail %q", a.Seq, a.Extracted, a.Detail)
		}
		return ok
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var since uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				page, next, _ := l.after(since, 32)
				for i := range page {
					if !rendered(&page[i].Anomaly) {
						return
					}
				}
				since = next
				if a, ok := l.get(next); ok && !rendered(&a) {
					return
				}
				if r == 1 {
					for _, a := range l.all() {
						if !rendered(&a) {
							return
						}
					}
				}
			}
		}()
	}
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := range 2000 {
		l.append(sd.Consume(logging.Record{
			Time: t0.Add(time.Duration(i) * time.Millisecond), Level: logging.Error,
			Message:   fmt.Sprintf("Totally novel failure %d on host%d:1234", i, i%97),
			Framework: logging.Spark, SessionID: "sess",
		}))
	}
	close(stop)
	wg.Wait()
	if l.len() != 256 {
		t.Fatalf("log holds %d entries, want 256", l.len())
	}
}
