package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// workloadSpec is one traffic mix. The system under test is the same
// pinned daemon for all of them; only what the generator sends differs.
type workloadSpec struct {
	name   string
	why    string
	fw     logging.Framework
	ndjson bool // POST /v1/ingest NDJSON; otherwise the ILS1 binary wire
	batch  int
	rate   int // open loop: offered records/s; 0 = closed loop
}

var workloads = []workloadSpec{
	{name: "spark_ndjson", fw: logging.Spark, ndjson: true, batch: 512,
		why: "closed loop, Spark cycle over NDJSON: JSON wire decode dominates the ack path, resolve is almost all memo hits"},
	{name: "spark_ils1", fw: logging.Spark, batch: 512,
		why: "closed loop, same Spark records over ILS1: decode is cheap, so memo-hit resolve + apply + WAL + queue hand-off dominate"},
	{name: "hdfs_ils1", fw: logging.HDFS, batch: 512,
		why: "closed loop, HDFS cycle over ILS1: 97% new renderings overflow both memo layers, so the resolve miss path and session churn dominate"},
	{name: "mixed_openloop", fw: logging.Spark, batch: 256, rate: 50000,
		why: "open loop, Spark at a fixed 50k rec/s with probes beside an anomaly/analytics reader: latency below saturation, reads beside writes"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	retryPause   = 2 * time.Millisecond   // closed-loop wait after a refused batch
	ackTimeout   = 10 * time.Second       // a batch still refused after this was never acked
	probeEvery   = 4                      // open loop: every 4th batch carries a probe
	probeTimeout = 5 * time.Second        // a probe not visible by then failed
	pollEvery    = 2 * time.Millisecond   // open-loop reader: /v1/anomalies cadence
	queryEvery   = 25 * time.Millisecond  // open-loop reader: analytics read cadence (≥ 1,000 a run: p99 has 10 beyond it)
	sampleEvery  = 250 * time.Millisecond // traced phase: /metrics scrape cadence
	windowLen    = 5 * time.Second        // throughput is the median over windows this long: one checkpoint each
	tracedLen    = 10 * time.Second       // a full run's traced phase, after the measured one
	lateLimit    = 50 * time.Millisecond  // open loop: generator lateness p99 above this voids the run
	deliveredMin = 0.98                   // open loop: so does delivering less than this share of the offered rate
	// runSlack is what a run may take beyond its measured seconds for
	// set-up, warm-up and finishing the last epoch (≈ 5 s when healthy).
	// A daemon in the late-record collapse (README, hazard 1) acks a few
	// hundred records a second and would otherwise hold a run for hours.
	runSlack = 90 * time.Second
)

// runConfig is what the command line decides about one workload run.
type runConfig struct {
	seed      int64
	measure   time.Duration // untraced measured phase
	traced    time.Duration // traced phase after it; 0 = none
	epochs    int           // epochs per cycle; 0 = the framework's full cycle
	setupReps int
	daemonBin string
	workDir   string // scratch for models, state, WAL; removed afterwards
	traceOut  string // where trace-<workload>.json goes; "" = not written
	buildS    float64
	misShift  bool
}

// timed is one latency sample and when it completed.
type timed struct {
	at  time.Time
	lat time.Duration
}

// ackSample is one batch from first attempt (closed loop) or due time
// (open loop) to its final ack.
type ackSample struct {
	at   time.Time
	lat  time.Duration
	recs int
}

// phase is one measured stretch of a run and everything counted in it.
type phase struct {
	start, end       time.Time
	acks             []ackSample
	late             []time.Duration
	sends, refusals  int
	cpu0, cpu1       float64 // daemon user+sys seconds
	gen0, gen1       float64 // generator user+sys seconds
	scrape0, scrape1 scrape
	gauges           map[string][]float64 // traced phase: sampled gauges
}

func (p *phase) records() int {
	n := 0
	for _, a := range p.acks {
		n += a.recs
	}
	return n
}

// runner drives one workload against one daemon.
type runner struct {
	spec workloadSpec
	cfg  runConfig
	in   *inputs
	tr   *tracer

	dir      string    // the run's scratch: one subdirectory per set-up repetition
	deadline time.Time // a run still sending after this has hung (see runSlack)
	d        *daemon
	httpc    *http.Client
	cl       *server.Client
	sc       *server.StreamConn

	// stream position: the next record to send is epochs[ep].recs[off]
	// of the given pass.
	pass, ep, off int
	view          passView
	recs          []logging.Record
	body          []byte
	n             int // records in the current batch

	sent, acked int
	epochRuns   []int // times each epoch has been started
	probes      int
	attempted   int
	failed      int
	failures    []string
	encodeNs    int64
	encodeRecs  int
	setupS      []float64
	trainMs     []float64
	rd          *reader
	referenceNs int64 // time batch detection took over the cycle
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// nextBatch materialises up to n records from the stream position into
// r.recs (and r.body for NDJSON) and advances it. A batch never crosses
// an epoch boundary, so the run can always stop on one.
func (r *runner) nextBatch(n int) {
	t0 := time.Now()
	ep := r.in.epochs[r.ep]
	if r.off == 0 {
		r.view = r.in.view(r.pass, r.ep)
		r.epochRuns[r.ep]++
	}
	hi := r.off + n
	if hi > len(ep.recs) {
		hi = len(ep.recs)
	}
	if r.spec.ndjson {
		r.body = ep.fillNDJSON(r.body[:0], r.off, hi, r.pass, r.ep, r.view)
	} else {
		r.recs = ep.fill(r.recs[:0], r.off, hi, r.view)
	}
	r.encodeNs += int64(time.Since(t0))
	r.n = hi - r.off
	r.encodeRecs += r.n
	r.off = hi
	if r.off == len(ep.recs) {
		r.off = 0
		r.ep++
		if r.ep == len(r.in.epochs) {
			r.ep = 0
			r.pass++
		}
	}
}

// sendOnce makes one attempt at the current batch. refused reports a
// queue-full answer, which the protocol asks the client to retry.
func (r *runner) sendOnce(parent int32) (accepted int, refused bool, err error) {
	id := r.tr.begin("client.send", parent)
	defer func() { r.tr.end(id, accepted) }()
	var out server.IngestResponse
	if r.spec.ndjson {
		out, refused, err = r.postNDJSON()
	} else {
		out, err = r.sc.Send(r.recs)
		var qf server.ErrQueueFull
		if errors.As(err, &qf) {
			refused, err = true, nil
		}
	}
	if err == nil && (out.Skipped != 0 || out.DeadLettered != 0) {
		err = fmt.Errorf("daemon skipped %d and dead-lettered %d generated records", out.Skipped, out.DeadLettered)
	}
	return out.Accepted, refused, err
}

// postNDJSON posts the pre-encoded body: server.Client.IngestRecords
// would encode the records again on every call.
func (r *runner) postNDJSON() (out server.IngestResponse, refused bool, err error) {
	resp, err := r.httpc.Post(r.d.base+"/v1/ingest?tenant="+tenantName, "application/x-ndjson", bytes.NewReader(r.body))
	if err != nil {
		return out, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		return out, false, json.NewDecoder(resp.Body).Decode(&out)
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return out, true, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, false, fmt.Errorf("POST /v1/ingest: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// sendBatch delivers the current batch, retrying refusals after a fixed
// pause, and returns how many attempts were refused. The stream must
// stay gap-free for the correctness gate, so a batch that cannot be
// delivered ends the run.
func (r *runner) sendBatch() (refusals int, err error) {
	want := r.n
	r.attempted++
	r.sent += want
	id := r.tr.begin("batch", -1)
	defer func() { r.tr.end(id, want) }()
	deadline := time.Now().Add(ackTimeout)
	for {
		if time.Now().After(r.deadline) {
			r.fail("run out of time")
			return refusals, fmt.Errorf("still sending %s after the run should have ended: the daemon has all but stopped", runSlack)
		}
		accepted, refused, err := r.sendOnce(id)
		if err != nil {
			r.fail("batch failed: %v", err)
			return refusals, err
		}
		if !refused {
			r.acked += accepted
			if accepted != want {
				r.fail("batch of %d acked as %d", want, accepted)
				return refusals, fmt.Errorf("batch of %d records acked as %d", want, accepted)
			}
			return refusals, nil
		}
		refusals++
		if time.Now().After(deadline) {
			r.fail("batch never acked")
			return refusals, fmt.Errorf("batch still refused after %s", ackTimeout)
		}
		sl := r.tr.begin("retry.pause", id)
		time.Sleep(retryPause)
		r.tr.end(sl, 0)
	}
}

// setup measures setup_s — inputs ready to first warm-up batch acked:
// core.Train, model save, daemon boot, lazy tenant load — setupReps
// times over fresh state, and keeps the last daemon for the run.
func (r *runner) setup() error {
	r.epochRuns = make([]int, len(r.in.epochs))
	if r.spec.ndjson {
		for _, ep := range r.in.epochs {
			ep.buildNDJSON()
		}
	}
	// Every repetition acks the same first batch; only the last daemon
	// goes on to serve the run.
	r.nextBatch(r.spec.batch)
	for rep := 0; rep < r.cfg.setupReps; rep++ {
		dir := filepath.Join(r.dir, strconv.Itoa(rep))
		if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		model := core.Train(r.in.train, core.Config{})
		r.trainMs = append(r.trainMs, ms(time.Since(t0)))
		if err := saveModel(model, filepath.Join(dir, "models", tenantName+".json")); err != nil {
			return err
		}
		d, err := startDaemon(r.cfg.daemonBin, dir)
		if err != nil {
			return err
		}
		r.d = d
		r.cl = &server.Client{Base: d.base, Tenant: tenantName, HTTP: r.httpc}
		if !r.spec.ndjson {
			if r.sc, err = r.cl.DialStream(d.streamAddr, r.in.fw); err != nil {
				return err
			}
		}
		r.sent, r.acked, r.attempted = 0, 0, 0
		if _, err := r.sendBatch(); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if rep == r.cfg.setupReps-1 {
			r.reference(model)
			return nil
		}
		if err := r.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

func saveModel(m *core.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stop closes the connections and drains the daemon.
func (r *runner) stop() error {
	if r.sc != nil {
		r.sc.Close()
		r.sc = nil
	}
	r.httpc.CloseIdleConnections()
	if r.d == nil {
		return nil
	}
	err := r.d.stop()
	r.d = nil
	return err
}

// reference computes what the correctness gate compares against: batch
// detection, single-threaded, over each epoch's sessions — the same job
// the daemon does online. (A probe adds exactly one finding to either.)
func (r *runner) reference(model *core.Model) {
	det := model.Detector()
	for _, ep := range r.in.epochs {
		sessions := logging.GroupSessions(ep.recs)
		t0 := time.Now()
		ep.anomalies = len(det.DetectParallel(sessions, 1).Anomalies)
		r.referenceNs += int64(time.Since(t0))
	}
}

// warmup streams the rest of the first cycle untimed, so caches fill,
// the tenant is loaded and sessions of the first epochs have begun to
// idle out before anything is measured.
func (r *runner) warmup() error {
	for r.pass == 0 {
		r.nextBatch(r.spec.batch)
		if _, err := r.sendBatch(); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) beginPhase() (*phase, error) {
	p := &phase{gauges: map[string][]float64{}}
	var err error
	if p.scrape0, err = r.scrape(); err != nil {
		return nil, err
	}
	if p.cpu0, err = procCPU(r.d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	p.gen0 = selfCPU()
	p.start = time.Now()
	return p, nil
}

func (r *runner) endPhase(p *phase) error {
	p.end = time.Now()
	p.gen1 = selfCPU()
	var err error
	if p.cpu1, err = procCPU(r.d.cmd.Process.Pid); err != nil {
		return err
	}
	p.scrape1, err = r.scrape()
	return err
}

func (r *runner) scrape() (scrape, error) {
	id := r.tr.begin("client.metrics", -1)
	text, err := r.cl.Metrics()
	r.tr.end(id, 0)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	s := parseMetrics(text)
	return s, s.checkNames()
}

// sampleGauges scrapes /metrics into the phase's gauge samples.
func (r *runner) sampleGauges(p *phase, mu *sync.Mutex) {
	s, err := r.scrape()
	if err != nil {
		return
	}
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	for _, g := range []string{"intellogd_queue_records", "intellogd_pending_sessions",
		"intellogd_expiry_heap_depth", "intellogd_heap_alloc_bytes"} {
		p.gauges[g] = append(p.gauges[g], s[g])
	}
}

// driveClosed runs the closed loop for dur: one connection, the next
// batch only after the previous one is acked. While traced, the sender
// also takes the live samples (scrape, anomaly page, one analytics
// read) every sampleEvery, since it is the only generator goroutine.
func (r *runner) driveClosed(dur time.Duration) (*phase, error) {
	p, err := r.beginPhase()
	if err != nil {
		return nil, err
	}
	deadline := p.start.Add(dur)
	nextSample := p.start.Add(sampleEvery)
	var cursor uint64
	q := 0
	for time.Now().Before(deadline) {
		r.nextBatch(r.spec.batch)
		t0 := time.Now()
		refusals, err := r.sendBatch()
		p.sends += 1 + refusals
		p.refusals += refusals
		if err != nil {
			return nil, err
		}
		now := time.Now()
		p.acks = append(p.acks, ackSample{at: now, lat: now.Sub(t0), recs: r.n})
		if r.tr.on.Load() && now.After(nextSample) {
			nextSample = now.Add(sampleEvery)
			r.sampleGauges(p, nil)
			cursor = r.sampleReads(cursor, q)
			q++
		}
	}
	return p, r.endPhase(p)
}

// sampleReads times one anomaly page and one analytics read (round
// robin) for the per-layer numbers of a closed-loop workload.
func (r *runner) sampleReads(cursor uint64, q int) uint64 {
	id := r.tr.begin("client.anomalies", -1)
	page, err := r.cl.Anomalies(cursor, 256)
	r.tr.end(id, len(page.Anomalies))
	if err == nil && page.Next > 0 {
		cursor = page.Next
	}
	analyticsRead(r.cl, r.tr, q, cursor)
	return cursor
}

// analyticsRead issues the q-th analytics read of the round robin and
// returns its latency.
func analyticsRead(cl *server.Client, tr *tracer, q int, seq uint64) (time.Duration, error) {
	t0 := time.Now()
	var err error
	switch {
	case q%3 == 0 || (q%3 == 2 && seq == 0):
		id := tr.begin("client.clusters", -1)
		_, err = cl.Clusters(0, 0)
		tr.end(id, 0)
	case q%3 == 1:
		id := tr.begin("client.rollups", -1)
		_, err = cl.Rollups(0, 0)
		tr.end(id, 0)
	default:
		id := tr.begin("client.explain", -1)
		_, err = cl.Explain(seq)
		tr.end(id, 0)
	}
	return time.Since(t0), err
}

// driveOpen runs the open loop for dur: batch i is due at start +
// i·interval whatever the daemon does, and its latency runs from that
// due time, so a stall is charged to every batch it delays.
func (r *runner) driveOpen(dur time.Duration) (*phase, error) {
	p, err := r.beginPhase()
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(r.spec.batch) / float64(r.spec.rate) * float64(time.Second))
	r.rd.setPhase(p)
	free := p.start // when the one connection was last free to send
	for i := 0; ; i++ {
		due := p.start.Add(time.Duration(i) * interval)
		if due.Sub(p.start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r.nextBatch(r.spec.batch)
		if i%probeEvery == 0 {
			r.recs = append(r.recs, probeRecord(r.probes, &r.recs[len(r.recs)-1]))
			r.n++
			r.rd.expect(r.probes, due)
			r.probes++
			r.attempted++
		}
		// The generator's own lateness: how long after the batch could
		// first have gone out (it was due and the connection was free)
		// it actually did. Waiting for a stalled ack is the daemon's
		// doing and is charged to the batch's latency instead.
		if due.After(free) {
			free = due
		}
		p.late = append(p.late, time.Since(free))
		refusals, err := r.sendBatch()
		p.sends += 1 + refusals
		p.refusals += refusals
		if err != nil {
			return nil, err
		}
		free = time.Now()
		p.acks = append(p.acks, ackSample{at: free, lat: free.Sub(due), recs: r.n})
	}
	r.rd.setPhase(nil)
	return p, r.endPhase(p)
}

// reader is the open-loop workload's second connection: it follows
// /v1/anomalies with a cursor to time probe visibility and issues the
// analytics reads.
type reader struct {
	r    *runner
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	due     []time.Time // by probe number
	seen    []int       // times each probe has appeared
	visible []timed
	queries []timed
	errs    int
	phase   *phase // traced phase to scrape gauges into, or nil
	cursor  uint64
}

func startReader(r *runner) *reader {
	rd := &reader{r: r, stop: make(chan struct{}), done: make(chan struct{})}
	go rd.loop()
	return rd
}

func (rd *reader) setPhase(p *phase) {
	rd.mu.Lock()
	rd.phase = p
	rd.mu.Unlock()
}

func (rd *reader) expect(n int, due time.Time) {
	rd.mu.Lock()
	rd.due = append(rd.due, due)
	rd.seen = append(rd.seen, 0)
	rd.mu.Unlock()
}

func (rd *reader) loop() {
	defer close(rd.done)
	tr := rd.r.tr
	nextQuery := time.Now().Add(queryEvery)
	nextSample := time.Now().Add(sampleEvery)
	q := 0
	for {
		select {
		case <-rd.stop:
			return
		default:
		}
		tick := time.Now()
		id := tr.begin("client.anomalies", -1)
		page, err := rd.r.cl.Anomalies(rd.cursor, 256)
		tr.end(id, len(page.Anomalies))
		now := time.Now()
		rd.mu.Lock()
		if err != nil {
			rd.errs++
		} else {
			rd.cursor = page.Next
			for i := range page.Anomalies {
				a := &page.Anomalies[i].Anomaly
				if a.Kind != detect.UnexpectedMessage || a.Record == nil {
					continue
				}
				n, ok := probeNumber(a.Record.Message)
				if !ok {
					continue
				}
				if n >= len(rd.seen) {
					rd.errs++
					continue
				}
				rd.seen[n]++
				rd.visible = append(rd.visible, timed{at: now, lat: now.Sub(rd.due[n])})
			}
		}
		p := rd.phase
		rd.mu.Unlock()
		if err == nil && len(page.Anomalies) == 256 {
			continue // a full page: more is already waiting
		}
		if now.After(nextQuery) {
			nextQuery = nextQuery.Add(queryEvery)
			lat, err := analyticsRead(rd.r.cl, tr, q, rd.cursor)
			q++
			rd.mu.Lock()
			if err != nil {
				rd.errs++
			}
			rd.queries = append(rd.queries, timed{at: time.Now(), lat: lat})
			rd.mu.Unlock()
		}
		if p != nil && tr.on.Load() && now.After(nextSample) {
			nextSample = now.Add(sampleEvery)
			rd.r.sampleGauges(p, &rd.mu)
		}
		if wait := pollEvery - time.Since(tick); wait > 0 {
			time.Sleep(wait)
		}
	}
}

// drain waits until every probe has appeared (or probeTimeout passes),
// stops the reader, charges failed reads and late probes to the run and
// returns how many probes were not seen exactly once.
func (rd *reader) drain() (miscounted int) {
	deadline := time.Now().Add(probeTimeout)
	for time.Now().Before(deadline) {
		rd.mu.Lock()
		missing := 0
		for _, n := range rd.seen {
			if n == 0 {
				missing++
			}
		}
		rd.mu.Unlock()
		if missing == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(rd.stop)
	<-rd.done
	r := rd.r
	r.attempted += len(rd.queries)
	for i := 0; i < rd.errs; i++ {
		r.fail("reader: query or anomaly page failed")
	}
	for n, c := range rd.seen {
		if c != 1 {
			r.fail("probe %d seen %d times", n, c)
			miscounted++
		}
	}
	for _, v := range rd.visible {
		if v.lat > probeTimeout {
			r.fail("probe visible only after %s", v.lat)
		}
	}
	return miscounted
}

// between returns the latencies of the samples completed in [from,to).
func between(xs []timed, from, to time.Time) []time.Duration {
	var out []time.Duration
	for _, x := range xs {
		if !x.at.Before(from) && x.at.Before(to) {
			out = append(out, x.lat)
		}
	}
	return out
}

// finish completes the epoch in flight so the stream ends on an epoch
// boundary, flushes, and applies the correctness gate: anomalies equal
// the batch reference exactly, acked equals sent, every probe seen
// exactly once, no pooled batch left outstanding.
func (r *runner) finish() error {
	for r.off != 0 {
		r.nextBatch(r.spec.batch)
		if _, err := r.sendBatch(); err != nil {
			return err
		}
	}
	miscounted := 0
	if r.rd != nil {
		miscounted = r.rd.drain()
	}
	id := r.tr.begin("client.flush", -1)
	_, err := r.cl.Flush()
	r.tr.end(id, 0)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	s, err := r.scrape()
	if err != nil {
		return err
	}
	want := r.probes
	for e, ep := range r.in.epochs {
		want += r.epochRuns[e] * ep.anomalies
	}
	var errs []string
	if got := int(s["intellogd_anomalies_total"]); got != want {
		errs = append(errs, fmt.Sprintf("daemon emitted %d anomalies, batch detection of the same epochs (+%d probes) gives %d", got, r.probes, want))
	}
	if got := int(s["intellogd_ingest_records_total"]); got != r.sent || r.acked != r.sent {
		errs = append(errs, fmt.Sprintf("sent %d records, acked %d, daemon counted %d", r.sent, r.acked, got))
	}
	if got := int(s["intellogd_batch_pool_outstanding"]); got != 0 {
		errs = append(errs, fmt.Sprintf("%d pooled batches still outstanding after the final flush", got))
	}
	// intellogd_dlq_records_total only appears with the first dead letter;
	// live entries plus those retention dropped are exposed from the start.
	if got := s["intellogd_ingest_skipped_total"] + s["intellogd_dlq_depth"] + s["intellogd_dlq_dropped_total"]; got != 0 {
		errs = append(errs, fmt.Sprintf("daemon skipped or dead-lettered %v generated records", got))
	}
	if miscounted > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d probes not seen exactly once", miscounted, r.probes))
	}
	if len(errs) > 0 {
		return fmt.Errorf("correctness gate: %s", strings.Join(errs, "; "))
	}
	return nil
}
