package server

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"intellog/internal/analytics"
	"intellog/internal/batch"
	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/metrics"
	"intellog/internal/wal"
)

// task is one unit of work on a tenant worker's queue: either an ingest
// sub-batch or a control step (one leg of a pool-wide barrier). Control
// steps ride the same queues as batches, so they serialize behind every
// record accepted before them — a checkpoint therefore captures an exact
// cut of the ingest stream without pausing the HTTP layer.
//
// A batch task carries the pooled batch itself: placement on the queue
// is the ownership hand-off, and the worker that drains it releases it
// back to the pool after the detector consumes it.
type task struct {
	b   *batch.Batch
	ctl func()
}

// tenant is one resident tenant: a trained model, its streaming
// detector, a bounded session-sharded ingest queue pool, and the anomaly
// log that backs the query endpoints.
type tenant struct {
	name string
	srv  *Server

	model *core.Model
	det   *detect.Detector
	sd    *detect.StreamDetector
	sink  *anomalyLog

	// engine aggregates the tenant's admitted anomalies into clusters,
	// rollups, and root-cause explanations. It is fed exactly once per
	// finding through the sink's admission callback, so WAL replay,
	// multi-worker reordering, and client retries all collapse to one
	// observation per seq. Its state rides the checkpoint.
	engine *analytics.Engine

	// queues are drained by one worker goroutine each; a record routes to
	// queues[hash(sessionID) % len(queues)], so records of one session are
	// always consumed in ingest order by the same worker while sessions
	// spread across the pool. sendMu guards the close handshake: senders
	// hold it shared and check closed before sending; close takes it
	// exclusively, so no send can race the close. routeMu serializes the
	// enqueue side across queues: every multi-queue placement (a split
	// batch, a control barrier) happens atomically with respect to every
	// other, which keeps batch admission all-or-nothing and makes a
	// barrier a true cut — no batch lands partly before it on one queue
	// and partly after it on another. Workers only ever drain, so a
	// len < cap check under routeMu guarantees the following send cannot
	// block.
	queues  []chan task
	sendMu  sync.RWMutex
	routeMu sync.Mutex
	closed  bool
	pending atomic.Int64 // records queued but not yet consumed
	worker  sync.WaitGroup

	// room and gone are what a stream connection holding a batch the
	// queue had no room for waits on (Server.awaitRoom). room carries at
	// most one pending wake-up (see wake); gone is closed together with
	// closed, so a connection holding this instance after an eviction
	// resolves the tenant again.
	room chan struct{}
	gone chan struct{}
	// held counts the stream connections parked in awaitRoom on this
	// instance (intellogd_stream_held_connections).
	held atomic.Int64

	// assignMu guards the raw-line sessionizer (handlers run
	// concurrently; stickiness state is shared).
	assignMu  sync.Mutex
	assigner  logging.SessionAssigner
	formatter logging.Formatter

	// wal, when non-nil, is the tenant's write-ahead log: every batch is
	// appended (and, per the sync policy, fsynced) under routeMu between
	// the queue-room check and the channel sends, so WAL order equals
	// queue placement order and a control barrier's cut corresponds to
	// an exact WAL sequence number. dlq is always non-nil (memory-only
	// without a state dir) and quarantines records refused by per-record
	// validation.
	wal *wal.Log
	dlq *wal.DLQ
	// dlqRecords counts records dead-lettered and anomalies the findings
	// emitted, per detect.Kind. All three are registered at load, so every
	// series reads 0 before its first event instead of being absent.
	dlqRecords *metrics.Counter
	anomalies  [int(detect.Overflow) + 1]*metrics.Counter
	// streamBatches counts binary-wire batches accepted, resolved once at
	// load so the per-frame ack path renders no labels.
	streamBatches *metrics.Counter

	// ingest counters (mirrored into /metrics).
	records     atomic.Uint64 // accepted records
	batches     atomic.Uint64 // accepted batches
	rejected    atomic.Uint64 // batches refused with 429 (NDJSON and DLQ requeue)
	skipped     atomic.Uint64 // lines dropped (unparsable / no session)
	walReplayed atomic.Uint64 // records recovered from the WAL at boot

	restored bool // loaded from a checkpoint at startup
}

// newTenant assembles a tenant around a loaded model, optional
// checkpointed stream state, and the checkpoint's analytics payload
// (nil starts aggregation fresh).
func newTenant(srv *Server, name string, m *core.Model, st *detect.StreamState, analyticsState []byte) (*tenant, error) {
	t := &tenant{
		name:      name,
		srv:       srv,
		model:     m,
		sink:      newAnomalyLog(srv.cfg.AnomalyLog),
		queues:    make([]chan task, srv.cfg.ingestWorkers()),
		room:      make(chan struct{}, 1),
		gone:      make(chan struct{}),
		formatter: logging.FormatterFor(srv.cfg.DefaultFramework),
	}
	for i := range t.queues {
		t.queues[i] = make(chan task, srv.cfg.queueBatches())
	}
	t.det = m.Detector()
	if st != nil {
		sd, err := detect.RestoreStreamDetector(t.det, srv.cfg.Stream, st)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: restore stream: %w", name, err)
		}
		t.sd = sd
		t.assigner.Resume(st.Sticky)
		t.restored = true
	} else {
		t.sd = detect.NewStream(t.det, srv.cfg.Stream)
	}
	// Prime the anomaly log with the detector's emission cursor so the
	// dense log admits findings in stamp order even when pool workers
	// append out of order (and restored tenants continue past their
	// checkpointed cursor).
	t.sink.prime(t.sd.AnomalySeq() + 1)
	// The analytics engine must be wired before WAL replay and worker
	// start: replayed findings past the checkpoint cursor flow through
	// the same admission callback as live ones.
	if analyticsState != nil {
		eng, err := analytics.RestoreJSON(srv.cfg.Analytics, m.Graph, analyticsState)
		if err != nil {
			// A bad payload must not block serving: aggregation restarts
			// fresh while detection resumes from the checkpoint as usual.
			log.Printf("intellogd: tenant %s: analytics state unreadable (starting fresh): %v", name, err)
			eng = analytics.NewEngine(srv.cfg.Analytics, m.Graph)
		}
		t.engine = eng
	} else {
		t.engine = analytics.NewEngine(srv.cfg.Analytics, m.Graph)
	}
	t.sink.onAdmit = t.engine.ObserveBatch
	t.sink.det = t.det
	dlq, err := wal.OpenDLQ(srv.dlqDir(name), srv.cfg.DLQRetain)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: open dlq: %w", name, err)
	}
	t.dlq = dlq
	t.dlqRecords = srv.reg.Counter("intellogd_dlq_records_total",
		"records dead-lettered per tenant",
		metrics.Label{Key: "tenant", Value: name})
	t.streamBatches = srv.reg.Counter("intellogd_stream_batches_total",
		"binary ingest batches accepted, per tenant",
		metrics.Label{Key: "tenant", Value: name})
	for k := range t.anomalies {
		t.anomalies[k] = srv.reg.Counter("intellogd_anomalies_total",
			"anomalies emitted, by tenant and kind",
			metrics.Label{Key: "tenant", Value: name},
			metrics.Label{Key: "kind", Value: detect.Kind(k).String()})
	}
	if srv.cfg.walEnabled() {
		if err := t.openWALAndReplay(st); err != nil {
			dlq.Close()
			return nil, err
		}
	}
	t.worker.Add(len(t.queues))
	for _, q := range t.queues {
		go t.run(q)
	}
	return t, nil
}

// openWALAndReplay opens the tenant's write-ahead log and feeds every
// record past the checkpoint's WAL cursor back through the detector —
// the crash-window records that were 202-acked but not yet covered by a
// checkpoint. It runs before the worker pool starts, so the replay is a
// strictly ordered prefix of whatever the new life ingests; recovery is
// deterministic from (checkpoint, WAL suffix), so repeated crashes
// replay to the same state.
func (t *tenant) openWALAndReplay(st *detect.StreamState) error {
	pol, err := wal.ParseSyncPolicy(t.srv.cfg.WALSync)
	if err != nil {
		return fmt.Errorf("tenant %s: %w", t.name, err)
	}
	wl, err := wal.Open(t.srv.walDir(t.name), wal.Options{
		Sync:         pol,
		SyncEvery:    t.srv.cfg.WALSyncEvery,
		SegmentBytes: t.srv.cfg.WALSegmentBytes,
	})
	if err != nil {
		return fmt.Errorf("tenant %s: open wal: %w", t.name, err)
	}
	t.wal = wl
	if torn := wl.TornBytes(); torn > 0 {
		log.Printf("intellogd: tenant %s: wal: truncated %d-byte torn tail (records past it were never acked)",
			t.name, torn)
	}
	var cursor uint64
	if st != nil {
		cursor = st.WALSeq
	}
	if seq := wl.Seq(); cursor > seq {
		// A checkpoint ahead of the log means the WAL directory was
		// tampered with (or lost); the checkpoint is still authoritative
		// for everything it covers, so boot rather than refuse.
		log.Printf("intellogd: tenant %s: checkpoint covers wal seq %d but the log ends at %d",
			t.name, cursor, seq)
		cursor = seq
	}
	var dec detect.Decoder
	replayed, err := wl.ReplayEncoded(cursor, func(count int, body []byte) error {
		return t.consume(&dec, count, body)
	})
	if err != nil {
		wl.Close()
		return fmt.Errorf("tenant %s: wal replay: %w", t.name, err)
	}
	if replayed > 0 {
		t.walReplayed.Add(replayed)
		log.Printf("intellogd: tenant %s: replayed %d wal records past checkpoint cursor %d",
			t.name, replayed, cursor)
	}
	return nil
}

// run is one tenant worker: it feeds the streaming detector with its
// queue's records (every session routes to exactly one queue, so records
// of one session are consumed in ingest order) and flushes each task's
// findings to the anomaly sink in one batched append. Each batch is
// decoded here, once, into the worker's own Decoder, and goes through
// the detector's two-stage ConsumeEncoded, so the resolve stage of even
// a single-worker tenant fans out across the CPUs on a miss while the
// stateful apply stays ordered. Every finished task frees a queue slot,
// and a batch its records' budget, so each one, once the queue has
// drained to half its budget, wakes a waiting stream connection.
func (t *tenant) run(q chan task) {
	defer t.worker.Done()
	var dec detect.Decoder
	for tk := range q {
		if tk.ctl != nil {
			tk.ctl()
		} else {
			n := tk.b.Len()
			if err := t.consume(&dec, n, tk.b.Body); err != nil {
				// The edge validated every record before admitting it, so
				// this is a bug, not bad input.
				log.Printf("intellogd: tenant %s: dropped an undecodable batch: %v", t.name, err)
			}
			// The records keep no view of the body (anomalies copy out
			// what they keep), so the batch recycles here — the end of
			// its ownership chain.
			tk.b.Release()
			t.pending.Add(int64(-n))
		}
		if t.pending.Load() <= int64(t.srv.cfg.QueueRecords/2) {
			t.wake()
		}
	}
}

// wake lets one stream connection waiting for queue room retry its
// admission. It never blocks: room buffers one wake-up, and a second
// one while it is unclaimed adds nothing, because the connection that
// claims it and is admitted passes it on (serveStreamConn). Workers
// wake nobody until the queue is down to half its budget, as a TCP
// receiver reopens its window only in large steps (silly-window
// avoidance, RFC 1122 §4.2.3.3): a held connection then admits its
// frame and the ones behind it in one go, where waking on every
// finished batch would park and wake it once per frame and pace every
// ack by the worker.
func (t *tenant) wake() {
	select {
	case t.room <- struct{}{}:
	default:
	}
}

// consume decodes and detects one encoded batch — a served one, or a
// WAL entry at replay — and flushes its findings to the sink.
func (t *tenant) consume(dec *detect.Decoder, count int, body []byte) error {
	anoms, err := t.sd.ConsumeEncoded(dec, count, body)
	if len(anoms) > 0 {
		t.sink.append(anoms)
		t.countAnomalies(anoms)
	}
	return err
}

// countAnomalies mirrors emitted findings into the tenant's per-kind
// counters, batched per kind so a burst of findings costs one atomic add
// per kind instead of one per anomaly.
func (t *tenant) countAnomalies(as []detect.Anomaly) {
	var counts [len(t.anomalies)]int
	for i := range as {
		if k := as[i].Kind; k >= 0 && int(k) < len(counts) {
			counts[k]++
		}
	}
	for k, n := range counts {
		if n > 0 {
			t.anomalies[k].Add(float64(n))
		}
	}
}

// routeSession maps a session ID to one of n owners (FNV-1a): a tenant's
// worker queue, or a replay client's connection. Any stable hash works;
// nothing persists it.
func routeSession[S string | []byte](id S, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// admission is one batch's admission verdict: the single outcome every
// admission site (both ingest wires and DLQ requeue) renders, as an HTTP
// status or an ack.
type admission int

const (
	admitted       admission = iota // queued and logged: ack it
	admitTooLarge                   // exceeds the whole queue budget: can never be admitted
	admitQueueFull                  // over the budget right now: retry later
	admitWALFailed                  // the write-ahead append failed: never ack
)

// admit admits a pooled record batch under the per-tenant budget and
// takes ownership of it on every outcome: an admitted batch is queued
// (a worker releases it after the detector consumes it), a refused one
// is released here. A batch larger than the whole budget is refused
// outright (a retryable 429 would send well-behaved clients into a
// futile retry loop). Otherwise admission is two-staged: reserve record
// budget, then an all-or-nothing placement of the batch's per-worker
// splits — if either stage fails the batch is refused and nothing is
// buffered, so a saturated tenant holds at most QueueRecords records
// plus the in-flight tasks, never an unbounded backlog. admitWALFailed
// (with its error) means the write-ahead append failed after admission
// succeeded: the batch is NOT buffered and the caller must answer a hard
// failure (500/503), never an ack — acking what the WAL could not hold
// would silently re-open the crash window.
//
// admit answers for the NDJSON wire and DLQ requeue, where a full queue
// is a 429; a stream connection calls enqueue and settle itself, holding
// the batch until there is room.
func (t *tenant) admit(b *batch.Batch, skipped int, dead []wal.DeadLetter) (admission, error) {
	verdict, err := t.enqueue(b)
	if verdict == admitQueueFull {
		t.rejected.Add(1)
	}
	t.settle(b, verdict, skipped, dead)
	return verdict, err
}

// settle ends an admission: a refused batch is released, and an
// admitted one counts its request's skipped lines and writes its dead
// letters. Only an admitted batch counts them: a refused batch is
// retried verbatim, and counting on refusal would count it once per
// attempt.
func (t *tenant) settle(b *batch.Batch, verdict admission, skipped int, dead []wal.DeadLetter) {
	if verdict != admitted {
		b.Release()
		return
	}
	t.skipped.Add(uint64(skipped))
	t.deadLetter(dead)
}

// enqueue is admit's budget check and placement. It consumes b exactly
// when it returns admitted.
func (t *tenant) enqueue(b *batch.Batch) (admission, error) {
	n := int64(b.Len())
	max := int64(t.srv.cfg.QueueRecords)
	switch {
	case n == 0:
		b.Release()
		return admitted, nil
	case n > max:
		return admitTooLarge, nil
	}
	for {
		cur := t.pending.Load()
		if cur+n > max {
			return admitQueueFull, nil
		}
		if t.pending.CompareAndSwap(cur, cur+n) {
			break
		}
	}
	ok, err := t.sendBatch(b)
	if !ok || err != nil {
		// The reservation may have turned a stream connection away. After
		// a failed WAL append nothing else would wake it; a full queue
		// has a worker that will, and a closed tenant's waiters leave on
		// gone. Waking on those too would only let a lone waiter claim
		// its own wake-up and spin.
		t.pending.Add(-n)
		if err != nil {
			t.wake()
			return admitWALFailed, err
		}
		return admitQueueFull, nil
	}
	t.records.Add(uint64(n))
	t.batches.Add(1)
	return admitted, nil
}

// sendBatch splits a batch by session route (preserving input order
// within each split) and places the splits atomically: under routeMu
// every target queue is checked for room before anything is sent, so
// admission is all-or-nothing and the sends never block. The WAL append
// sits between the room check and the sends, inside the same routeMu
// critical section: refused batches never touch the log (a client 429
// retry cannot duplicate records on replay), and no record can land on
// a queue before a control barrier yet in the log after the barrier's
// cut.
func (t *tenant) sendBatch(b *batch.Batch) (bool, error) {
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	if t.closed {
		return false, nil
	}
	if len(t.queues) == 1 {
		// One queue: nothing to split, the batch itself is the task.
		t.routeMu.Lock()
		defer t.routeMu.Unlock()
		if len(t.queues[0]) >= cap(t.queues[0]) {
			return false, nil
		}
		if err := t.walAppend(b); err != nil {
			return false, err
		}
		t.queues[0] <- task{b: b}
		return true, nil
	}
	// Multi-queue: copy each record's bytes into its route's own pooled
	// sub-batch (input order preserved within a split), then place the
	// splits atomically and recycle the original. Splits are rented
	// lazily — a single-session batch costs one sub-batch, not one per
	// queue. The edge validated every record, so the walk cannot fail.
	split := make([]*batch.Batch, len(t.queues))
	var v wal.RecordView
	for p := b.Body; len(p) > 0; {
		rest, _ := wal.DecodeRecordView(p, &v)
		w := routeSession(v.SessionID, len(t.queues))
		if split[w] == nil {
			split[w] = t.srv.batches.Get()
		}
		split[w].Body = append(split[w].Body, p[:len(p)-len(rest)]...)
		split[w].N++
		p = rest
	}
	releaseSplits := func() {
		for _, sb := range split {
			if sb != nil {
				sb.Release()
			}
		}
	}
	t.routeMu.Lock()
	defer t.routeMu.Unlock()
	for w, sb := range split {
		if sb != nil && len(t.queues[w]) >= cap(t.queues[w]) {
			releaseSplits()
			return false, nil
		}
	}
	if err := t.walAppend(b); err != nil {
		releaseSplits()
		return false, err
	}
	for w, sb := range split {
		if sb != nil {
			t.queues[w] <- task{b: sb}
		}
	}
	b.Release()
	return true, nil
}

// walAppend durably logs an admitted batch's bytes as they are (no-op
// without a WAL). Must run under routeMu — see sendBatch.
func (t *tenant) walAppend(b *batch.Batch) error {
	if t.wal == nil {
		return nil
	}
	if err := t.wal.AppendEncoded(b.N, b.Body); err != nil {
		t.srv.reg.Counter("intellogd_wal_append_errors_total",
			"failed write-ahead-log appends per tenant",
			metrics.Label{Key: "tenant", Value: t.name}).Inc()
		return err
	}
	return nil
}

// deadLetter quarantines records that failed per-record validation.
// admit calls it only once their batch's valid records are admitted —
// a refused (429/413) batch will be retried by the client verbatim, and
// dead-lettering it early would duplicate the entries.
func (t *tenant) deadLetter(ls []wal.DeadLetter) {
	if len(ls) == 0 {
		return
	}
	if err := t.dlq.Add(ls); err != nil {
		log.Printf("intellogd: tenant %s: dlq: %v", t.name, err)
		t.srv.reg.Counter("intellogd_dlq_write_errors_total",
			"failed dead-letter persistence attempts per tenant",
			metrics.Label{Key: "tenant", Value: t.name}).Inc()
	}
	t.dlqRecords.Add(float64(len(ls)))
}

// control runs fn with the whole worker pool quiesced — see controlCut,
// which it wraps for callers that don't need the barrier's WAL cut.
func (t *tenant) control(fn func(), block bool) bool {
	return t.controlCut(func(uint64) { fn() }, block)
}

// controlCut runs fn with the whole worker pool quiesced, after
// everything already queued, and waits for it to finish: a barrier task
// fans out to every queue under routeMu (so it cuts the accepted stream
// at one exact point), each worker parks once it reaches its leg, fn
// runs on the calling goroutine, and closing the release resumes the
// pool. fn receives the WAL sequence of the barrier's cut — captured
// under the same routeMu hold that places the legs, so it covers
// exactly the records queued before the barrier (concurrent barriers
// each get their own cut; a shared field would let a later barrier's
// larger cut leak into an earlier checkpoint and truncate unapplied
// records). Returns false if the tenant is closed. block=false refuses
// instead of waiting when any queue is full (the periodic checkpointer
// prefers skipping a cycle over stalling ingest).
func (t *tenant) controlCut(fn func(walCut uint64), block bool) bool {
	t.sendMu.RLock()
	if t.closed {
		t.sendMu.RUnlock()
		return false
	}
	release := make(chan struct{})
	var ready sync.WaitGroup
	ready.Add(len(t.queues))
	leg := task{ctl: func() {
		ready.Done()
		<-release
	}}
	t.routeMu.Lock()
	if !block {
		for _, q := range t.queues {
			if len(q) >= cap(q) {
				t.routeMu.Unlock()
				t.sendMu.RUnlock()
				return false
			}
		}
	}
	// With block=true a send may wait on a full queue; its worker is still
	// draining (it cannot have parked: its leg is enqueued exactly once,
	// by us, later), so the send always progresses and no ingest sneaks
	// in between legs — routeMu is held across the whole fan-out.
	var cut uint64
	if t.wal != nil {
		cut = t.wal.Seq()
	}
	for _, q := range t.queues {
		q <- leg
	}
	t.routeMu.Unlock()
	t.sendMu.RUnlock()
	ready.Wait()
	fn(cut)
	close(release)
	return true
}

// checkpointPath is the tenant's checkpoint file.
func (t *tenant) checkpointPath() string {
	return filepath.Join(t.srv.cfg.StateDir, t.name+checkpointExt)
}

// fileSync flushes a file (or directory) to stable storage; a variable
// so the checkpoint fault-injection test can simulate a dying disk.
var fileSync = func(f *os.File) error { return f.Sync() }

// syncParentDir fsyncs a directory so a just-renamed file's directory
// entry survives power loss.
func syncParentDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fileSync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveCheckpoint persists the model plus current stream state
// atomically and durably: the temp file is fsynced before the rename
// and the state directory after it, so a power loss at any point leaves
// either the old checkpoint or the complete new one — never a torn or
// unlinked file. It must only run with the worker pool quiesced (inside
// a control barrier, or after the workers have exited), so the snapshot
// pairs with an exact position in the accepted ingest stream; walCut is
// that position's WAL sequence (0 without a WAL), stamped into the
// state so boot replay knows where coverage ends, and every WAL segment
// it covers is truncated once the checkpoint is safely down.
func (t *tenant) saveCheckpoint(walCut uint64) error {
	if t.srv.cfg.StateDir == "" {
		return nil
	}
	path := t.checkpointPath()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	st := t.sd.State()
	// Carry the raw-line sessionizer's stickiness so a restored tenant
	// keeps attributing ID-less lines instead of dropping them. The
	// assigner tracks the latest *accepted* line, which may run slightly
	// ahead of the worker's consumed cut — the right side to err on:
	// with a WAL the gap replays on boot, without one it is lost anyway.
	t.assignMu.Lock()
	st.Sticky = t.assigner.Current()
	t.assignMu.Unlock()
	st.WALSeq = walCut
	// The quiesced pool means no admission callback is mid-flight, so
	// the engine state pairs exactly with the stream cut.
	analyticsState, err := t.engine.StateJSON()
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := core.SaveCheckpointState(f, t.model, st, 0, analyticsState); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := fileSync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncParentDir(t.srv.cfg.StateDir); err != nil {
		return err
	}
	if t.wal != nil {
		// The checkpoint covers everything through walCut; the segments
		// holding those records are dead weight now. A truncate failure
		// costs only re-replay on the next boot, never correctness.
		if err := t.wal.TruncateThrough(walCut); err != nil {
			log.Printf("intellogd: tenant %s: wal truncate: %v", t.name, err)
		}
	}
	return nil
}

// close stops the tenant: no further sends are admitted, the queues are
// closed, and once the workers have drained everything already accepted,
// a final checkpoint is written (when checkpoint is true and a state
// dir is configured). Safe to call more than once.
func (t *tenant) close(checkpoint bool) error {
	t.sendMu.Lock()
	already := t.closed
	if !already {
		t.closed = true
		close(t.gone)
		for _, q := range t.queues {
			close(q)
		}
	}
	t.sendMu.Unlock()
	t.worker.Wait()
	if already {
		return nil
	}
	var err error
	if checkpoint {
		// All appends are done (closed was set under sendMu), so Seq() is
		// the final cut and the drained detector state covers all of it.
		var cut uint64
		if t.wal != nil {
			cut = t.wal.Seq()
		}
		err = t.saveCheckpoint(cut)
	}
	if t.wal != nil {
		if cerr := t.wal.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := t.dlq.Close(); err == nil {
		err = cerr
	}
	return err
}
