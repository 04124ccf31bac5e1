package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"

	"intellog/internal/batch"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/wal"
)

// WireRecord is one NDJSON ingest line. Structured records embed the
// logging.Record fields directly (lossless, what the replay client
// sends); alternatively a raw "line" is parsed through the tenant's
// framework formatter and sessionizer, mirroring `intellog stream`.
type WireRecord struct {
	// Line, when non-empty, is a raw log line in the framework's on-disk
	// format; all other fields are ignored.
	Line string `json:"line,omitempty"`
	logging.Record
}

// IngestResponse reports what one /v1/ingest call did.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	Skipped  int `json:"skipped,omitempty"`
	// DeadLettered counts records routed to the tenant's dead-letter
	// queue (malformed JSON, no message, oversized) instead of failing
	// the batch; list them on /v1/dlq.
	DeadLettered int `json:"deadLettered,omitempty"`
}

// DLQResponse is one /v1/dlq page.
type DLQResponse struct {
	Entries []wal.Entry `json:"entries"`
	// Next is the cursor to pass as since on the following call.
	Next uint64 `json:"next"`
	// Depth is the tenant's total live dead-letter count.
	Depth int `json:"depth"`
	// Dropped counts entries the retention bound has discarded.
	Dropped uint64 `json:"dropped,omitempty"`
}

// RequeueRequest selects dead letters for /v1/dlq/requeue; an empty or
// absent body requeues everything live.
type RequeueRequest struct {
	Seqs []uint64 `json:"seqs,omitempty"`
}

// RequeueResponse reports a /v1/dlq/requeue outcome. Requeued entries
// re-ran ingest validation, were admitted, and left the queue; Failed
// ones still fail validation (or carry no session) and stay put.
// Requeue is at-least-once: a crash between admission and the tombstone
// write can replay an entry on the next requeue.
type RequeueResponse struct {
	Requeued int `json:"requeued"`
	Failed   int `json:"failed,omitempty"`
	Depth    int `json:"depth"`
}

// AnomaliesResponse is one /v1/anomalies page.
type AnomaliesResponse struct {
	Anomalies []SeqAnomaly `json:"anomalies"`
	// Next is the cursor to pass as since on the following call.
	Next uint64 `json:"next"`
	// Dropped counts findings the bounded retention window has discarded
	// since startup; a cursor older than the window resumes at its start.
	Dropped uint64 `json:"dropped,omitempty"`
}

// FlushResponse reports an explicit end-of-stream flush.
type FlushResponse struct {
	Sessions int `json:"sessions"`
	Findings int `json:"findings"`
}

// TenantInfo is one row of /v1/tenants.
type TenantInfo struct {
	Name            string `json:"name"`
	PendingSessions int    `json:"pendingSessions"`
	SessionsSeen    int    `json:"sessionsSeen"`
	QueuedRecords   int64  `json:"queuedRecords"`
	IngestedRecords uint64 `json:"ingestedRecords"`
	RejectedBatches uint64 `json:"rejectedBatches"`
	Anomalies       int    `json:"anomalies"`
	Restored        bool   `json:"restored,omitempty"`
	DLQDepth        int    `json:"dlqDepth,omitempty"`
	WALReplayed     uint64 `json:"walReplayed,omitempty"`
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/anomalies", s.handleAnomalies)
	mux.HandleFunc("/v1/anomalies/clusters", s.handleClusters)
	mux.HandleFunc("/v1/anomalies/{seq}/explain", s.handleExplain)
	mux.HandleFunc("/v1/rollups", s.handleRollups)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/v1/flush", s.handleFlush)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/v1/hwgraph", s.handleHWGraph)
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/v1/dlq", s.handleDLQ)
	mux.HandleFunc("/v1/dlq/requeue", s.handleDLQRequeue)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// tenantOf resolves the request's tenant, mapping load failures to HTTP
// codes. Returns nil after writing the error response.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.URL.Query().Get("tenant")
	t, err := s.Tenant(name)
	if err != nil {
		switch {
		case errors.Is(err, errBadTenant):
			httpError(w, http.StatusBadRequest, "missing or invalid tenant parameter")
		case errors.As(err, &errUnknownTenant{}):
			httpError(w, http.StatusNotFound, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "load tenant: %v", err)
		}
		return nil
	}
	return t
}

// scanBufs recycles the ingest scanner's line buffers — one 64KB
// allocation per POST otherwise, pure GC load under replay.
var scanBufs = sync.Pool{New: func() any { return make([]byte, 0, 64<<10) }}

// handleIngest accepts an NDJSON batch of records and queues it for the
// tenant's worker. A full queue answers 429 with Retry-After — the
// bounded-buffering contract: the server never absorbs more than the
// configured budget per tenant.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	fw, formatter, ok := s.frameworkOf(w, r, t)
	if !ok {
		return
	}
	b, skipped, dead, err := s.decodeIngest(w, r, t, fw, formatter)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes; split the batch", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	accepted := b.Len()
	switch verdict, err := t.admit(b, skipped, dead); verdict {
	case admitTooLarge:
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch of %d records exceeds tenant %s's whole queue budget (%d) and can never be admitted; split the batch",
			accepted, t.name, s.cfg.QueueRecords)
	case admitWALFailed:
		httpError(w, http.StatusInternalServerError,
			"tenant %s write-ahead log failed; batch not accepted: %v", t.name, err)
	case admitQueueFull:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"tenant %s ingest queue full (%d records budget); retry later", t.name, s.cfg.QueueRecords)
	default:
		writeJSON(w, http.StatusAccepted,
			IngestResponse{Accepted: accepted, Skipped: skipped, DeadLettered: len(dead)})
	}
}

// frameworkOf resolves a request's ?framework= parameter into the
// framework stamped on records that name none and the formatter raw
// lines parse through (the tenant default when absent — the parameter
// applies to both wire forms or not at all). An unknown name answers
// 400 and returns ok=false.
func (s *Server) frameworkOf(w http.ResponseWriter, r *http.Request, t *tenant) (logging.Framework, logging.Formatter, bool) {
	q := r.URL.Query().Get("framework")
	if q == "" {
		return s.cfg.DefaultFramework, t.formatter, true
	}
	fw := logging.Framework(q)
	if !fw.Known() {
		httpError(w, http.StatusBadRequest, "unknown framework %q", q)
		return "", nil, false
	}
	return fw, logging.FormatterFor(fw), true
}

// decodeIngest scans an NDJSON request body into a rented batch,
// classifying each line: valid records fill the batch, lines without a
// session are counted, and invalid records collect as dead letters (one
// bad record must not poison its neighbors). A read error — the body
// cap, or a broken connection — releases the batch and returns the
// error; otherwise the caller owns the batch.
func (s *Server) decodeIngest(w http.ResponseWriter, r *http.Request, t *tenant,
	fw logging.Framework, formatter logging.Formatter) (*batch.Batch, int, []wal.DeadLetter, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	scanner := bufio.NewScanner(body)
	sb := scanBufs.Get().([]byte)
	defer scanBufs.Put(sb) //nolint:staticcheck // slice reuse, not a pointer
	// The scanner must be able to hold any line the body limit admits:
	// a line past MaxRecordBytes is read whole and dead-lettered as one
	// record, not turned into a scan error that fails its whole batch.
	scanner.Buffer(sb, s.scanLineLimit())
	b := s.batches.Get()
	skipped := 0
	var dead []wal.DeadLetter
	for scanner.Scan() {
		raw := scanner.Bytes()
		if len(raw) == 0 {
			continue
		}
		switch verdict, reason := s.classifyLine(t, raw, fw, formatter, b); verdict {
		case lineSkip:
			skipped++
		case lineDead:
			dead = append(dead, wal.DeadLetter{Reason: reason, Line: string(raw)})
		}
	}
	if err := scanner.Err(); err != nil {
		b.Release()
		return nil, 0, nil, err
	}
	return b, skipped, dead, nil
}

// scanLineLimit is the ingest scanner's maximum token size: every line
// the body cap admits must be scannable so oversized records can be
// dead-lettered individually.
func (s *Server) scanLineLimit() int {
	limit := int(s.cfg.MaxBodyBytes) + 1
	if limit < s.cfg.MaxRecordBytes+1 {
		limit = s.cfg.MaxRecordBytes + 1
	}
	return limit
}

// lineVerdict classifies one ingest line.
type lineVerdict int

const (
	lineRecord lineVerdict = iota // a valid record to enqueue
	lineSkip                      // silently dropped (unparsable raw line / no session)
	lineDead                      // dead-lettered with a per-record reason
)

// classifyLine runs per-record ingest validation on one NDJSON wire
// line — size cap, JSON shape, raw-line parse, message presence, a time
// the record encoding can carry — and appends a valid record's encoding
// to b. It is shared by /v1/ingest and /v1/dlq/requeue, so a requeued
// entry faces exactly the rules live traffic does. A structured line on
// the fast path is encoded straight from its JSON byte views; everything
// else (a time out of range included) goes through a Record.
func (s *Server) classifyLine(t *tenant, raw []byte, fw logging.Framework,
	formatter logging.Formatter, b *batch.Batch) (lineVerdict, string) {
	if len(raw) > s.cfg.MaxRecordBytes {
		return lineDead,
			fmt.Sprintf("record of %d bytes exceeds the %d-byte record cap", len(raw), s.cfg.MaxRecordBytes)
	}
	var line string
	var wv wireView
	if fastWireRecord(raw, &wv) {
		if len(wv.Line) == 0 {
			verdict, reason := checkRecord(len(wv.Message) == 0, len(wv.SessionID) == 0)
			if verdict == lineRecord {
				b.Body = wal.AppendRecordView(b.Body, &wv.RecordView, []byte(fw))
				b.N++
			}
			return verdict, reason
		}
		line = string(wv.Line)
	} else {
		var wr WireRecord
		if err := json.Unmarshal(raw, &wr); err != nil {
			return lineDead, fmt.Sprintf("invalid JSON: %v", err)
		}
		if wr.Line == "" {
			rec := wr.Record
			verdict, reason := checkRecord(rec.Message == "", rec.SessionID == "")
			if verdict == lineRecord {
				if err := wal.CheckTime(rec.Time); err != nil {
					return lineDead, err.Error()
				}
				if rec.Framework == "" {
					rec.Framework = fw
				}
				b.Append(rec)
			}
			return verdict, reason
		}
		line = wr.Line
	}
	rec, ok := t.parseLine(formatter, line)
	if !ok {
		return lineSkip, ""
	}
	if err := wal.CheckTime(rec.Time); err != nil {
		return lineDead, err.Error()
	}
	b.Append(rec)
	return lineRecord, ""
}

// checkRecord is a structured NDJSON record's verdict: no message
// dead-letters it, no session skips it.
func checkRecord(noMessage, noSession bool) (lineVerdict, string) {
	switch {
	case noMessage:
		return lineDead, "record has no message (and no raw line)"
	case noSession:
		return lineSkip, ""
	}
	return lineRecord, ""
}

// parseLine parses one raw log line through the given formatter and the
// tenant's sticky sessionizer.
func (t *tenant) parseLine(f logging.Formatter, line string) (logging.Record, bool) {
	rec, ok := f.Parse(line)
	if !ok {
		return logging.Record{}, false
	}
	t.assignMu.Lock()
	ok = t.assigner.Assign(&rec)
	t.assignMu.Unlock()
	return rec, ok
}

// handleAnomalies serves the cursor-paginated anomaly log.
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	since, limit, ok := cursorParams(w, r)
	if !ok {
		return
	}
	anomalies, next, dropped := t.sink.after(since, limit)
	if anomalies == nil {
		anomalies = []SeqAnomaly{}
	}
	writeJSON(w, http.StatusOK, AnomaliesResponse{Anomalies: anomalies, Next: next, Dropped: dropped})
}

// handleReport serves the cumulative detection report: every retained
// finding plus the sessions-seen count, in detect.Report shape — after a
// flush it is exactly what a batch run over the same stream reports
// (proven byte-identical by the conformance e2e once canonicalized).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	rep := detect.Report{
		Sessions:  t.sd.SessionsSeen(),
		Anomalies: t.sink.all(),
	}
	if rep.Anomalies == nil {
		rep.Anomalies = []detect.Anomaly{}
	}
	writeJSON(w, http.StatusOK, &rep)
}

// handleFlush finalizes every in-flight session (explicit end of
// stream). The op rides the tenant queue, so it serializes behind all
// accepted ingest.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	var resp FlushResponse
	ok := t.control(func() {
		rep := t.sd.Flush()
		t.sink.append(rep.Anomalies)
		t.countAnomalies(rep.Anomalies)
		resp = FlushResponse{Sessions: rep.Sessions, Findings: len(rep.Anomalies)}
	}, true)
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "tenant %s is shutting down", t.name)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint forces a checkpoint at the current exact ingest cut.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	if s.cfg.StateDir == "" {
		httpError(w, http.StatusConflict, "no state directory configured")
		return
	}
	var saveErr error
	ok := t.controlCut(func(cut uint64) { saveErr = t.saveCheckpoint(cut) }, true)
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "tenant %s is shutting down", t.name)
		return
	}
	if saveErr != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", saveErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"checkpoint": t.checkpointPath()})
}

// handleHWGraph exports the tenant's trained HW-graph.
func (s *Server) handleHWGraph(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, t.model.Graph)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		fmt.Fprint(w, t.model.Graph.DOT())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, t.model.Graph.Render())
	default:
		httpError(w, http.StatusBadRequest, "format %q (want json, dot or text)", format)
	}
}

// handleTenants lists resident tenants, most recently used first.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	var out []TenantInfo
	for _, t := range s.resident() {
		out = append(out, TenantInfo{
			Name:            t.name,
			PendingSessions: t.sd.Pending(),
			SessionsSeen:    t.sd.SessionsSeen(),
			QueuedRecords:   t.pending.Load(),
			IngestedRecords: t.records.Load(),
			RejectedBatches: t.rejected.Load(),
			Anomalies:       t.sink.len(),
			Restored:        t.restored,
			DLQDepth:        t.dlq.Depth(),
			WALReplayed:     t.walReplayed.Load(),
		})
	}
	if out == nil {
		out = []TenantInfo{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDLQ serves the cursor-paginated dead-letter listing: every
// record per-record validation refused, with its reason and verbatim
// wire line, oldest first.
func (s *Server) handleDLQ(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	since, limit, ok := cursorParams(w, r)
	if !ok {
		return
	}
	entries, next, depth := t.dlq.List(since, limit)
	if entries == nil {
		entries = []wal.Entry{}
	}
	writeJSON(w, http.StatusOK, DLQResponse{
		Entries: entries,
		Next:    next,
		Depth:   depth,
		Dropped: t.dlq.Dropped(),
	})
}

// handleDLQRequeue re-runs dead-lettered records through ingest
// validation under the server's *current* configuration and enqueues
// the ones that now pass (the typical flow: records dead-lettered under
// a tight record cap are requeued after the cap is raised, or after a
// client bug producing bad JSON is fixed and the lines hand-edited).
// Entries that still fail stay in the queue untouched. A full ingest
// queue aborts with 429 before anything is removed, so no entry is ever
// lost to backpressure.
func (s *Server) handleDLQRequeue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	fw, formatter, ok := s.frameworkOf(w, r, t)
	if !ok {
		return
	}
	var req RequeueRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			httpError(w, http.StatusBadRequest, "request body: %v", err)
			return
		}
	}
	var want map[uint64]bool
	if len(req.Seqs) > 0 {
		want = make(map[uint64]bool, len(req.Seqs))
		for _, seq := range req.Seqs {
			want[seq] = true
		}
	}
	entries, _, _ := t.dlq.List(0, 0)
	b := s.batches.Get()
	var okSeqs []uint64
	failed := 0
	for _, e := range entries {
		if want != nil && !want[e.Seq] {
			continue
		}
		if verdict, _ := s.classifyLine(t, []byte(e.Line), fw, formatter, b); verdict != lineRecord {
			failed++
			continue
		}
		okSeqs = append(okSeqs, e.Seq)
	}
	n := b.Len()
	switch verdict, err := t.admit(b, 0, nil); verdict {
	case admitTooLarge:
		httpError(w, http.StatusRequestEntityTooLarge,
			"%d requeueable records exceed tenant %s's whole queue budget (%d); requeue a subset via seqs",
			n, t.name, s.cfg.QueueRecords)
	case admitWALFailed:
		httpError(w, http.StatusInternalServerError,
			"tenant %s write-ahead log failed; nothing requeued: %v", t.name, err)
	case admitQueueFull:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"tenant %s ingest queue full; nothing requeued, retry later", t.name)
	default:
		t.dlq.Remove(okSeqs)
		writeJSON(w, http.StatusOK, RequeueResponse{
			Requeued: len(okSeqs),
			Failed:   failed,
			Depth:    t.dlq.Depth(),
		})
	}
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tenants": len(s.resident())})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}
