package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"intellog/internal/analytics"
	"intellog/internal/batch"
	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/extract"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/server"
	"intellog/internal/wal"
)

// The layer replica pass pushes one cycle of the workload's own epochs,
// on one goroutine, through each package's public functions in serving
// order — wire ack, WAL, batch pool, tokenize, Spell lookup, bind,
// streaming consume, analytics — with a span around every call (one
// call covers a 512-record batch, so the clock reads stay out of the
// per-record cost). It measures the layers from outside; nothing in the
// daemon is instrumented.

const (
	replicaBatch  = 512
	alwaysBatches = 32 // fsync-per-append is too slow to run for a whole cycle
	syncEvery     = 32 // batches between timed Log.Sync calls
)

// countingWriter measures what a checkpoint would write.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// eachBatch calls fn with every replicaBatch-sized batch of one pass.
func (in *inputs) eachBatch(pass int, fn func(e, lo, hi int, v passView) error) error {
	for e, ep := range in.epochs {
		v := in.view(pass, e)
		for lo := 0; lo < len(ep.recs); lo += replicaBatch {
			hi := lo + replicaBatch
			if hi > len(ep.recs) {
				hi = len(ep.recs)
			}
			if err := fn(e, lo, hi, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// replica runs the pass and returns the replica-sourced layer metrics,
// over the model file the daemon itself loaded.
func (r *runner) replica() (map[string]metric, error) {
	tr, in, dir := r.tr, r.in, r.d.dir
	modelPath := filepath.Join(dir, "models", tenantName+".json")
	root := tr.begin("replica", -1)
	defer tr.end(root, in.records)
	out := map[string]metric{}
	perRec := func(name, spanName string) {
		out[name] = metric{Value: tr.perRecord(spanName), Unit: "ns", N: len(tr.durations(spanName))}
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}
	var model *core.Model
	for i := 0; i < 3; i++ {
		id := tr.begin("core.load", root)
		model, err = core.Load(bytes.NewReader(raw))
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
	}
	out["core.model_load_ms"] = msMetric(tr.durations("core.load"))

	if err := r.replicaServer(root, raw); err != nil {
		return nil, err
	}
	perRec("server.ndjson_ack_ns_per_rec", "server.ndjson_ack")
	if r.spec.ndjson {
		perRec("server.ils1_ack_ns_per_rec", "server.ils1_ack")
	}

	// Codec, WAL, tokenize, lookup, bind: the same batches, layer by layer.
	policies := []wal.SyncPolicy{wal.SyncNone, wal.SyncInterval, wal.SyncAlways}
	logs := make([]*wal.Log, len(policies))
	for i, pol := range policies {
		l, err := wal.Open(filepath.Join(dir, "wal-"+pol.String()), wal.Options{Sync: pol})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		logs[i] = l
	}
	var recs []logging.Record
	var buf []byte
	var encoded, nbatch int
	toks := make([][]nlp.Token, replicaBatch)
	texts := make([][]string, replicaBatch)
	err = in.eachBatch(0, func(e, lo, hi int, v passView) error {
		recs = in.epochs[e].fill(recs[:0], lo, hi, v)
		n := len(recs)

		id := tr.begin("wal.encode", root)
		buf = buf[:0]
		for i := range recs {
			buf = wal.AppendRecord(buf, &recs[i])
		}
		tr.end(id, n)
		encoded += len(buf)

		id = tr.begin("wal.decode", root)
		for p := buf; len(p) > 0; {
			var err error
			if _, p, err = wal.DecodeRecord(p); err != nil {
				return err
			}
		}
		tr.end(id, n)

		for i, l := range logs {
			if policies[i] == wal.SyncAlways && nbatch >= alwaysBatches {
				continue
			}
			id = tr.begin("wal.append."+policies[i].String(), root)
			err := l.Append(recs)
			tr.end(id, n)
			if err != nil {
				return err
			}
		}
		if nbatch%syncEvery == syncEvery-1 {
			id = tr.begin("wal.sync", root)
			err := logs[0].Sync()
			tr.end(id, 0)
			if err != nil {
				return err
			}
		}
		nbatch++

		id = tr.begin("nlp.tokenize", root)
		for i := range recs {
			toks[i] = nlp.Tokenize(recs[i].Message)
			texts[i] = nlp.Texts(toks[i])
		}
		tr.end(id, n)

		id = tr.begin("spell.lookup", root)
		keys := make([]*extract.IntelKey, n)
		for i := range recs {
			if k := model.Parser.Lookup(texts[i]); k != nil {
				keys[i] = model.Keys[k.ID]
			}
		}
		tr.end(id, n)

		bound := 0
		id = tr.begin("extract.bind", root)
		for i := range recs {
			if ik := keys[i]; ik != nil && ik.NaturalLanguage {
				extract.Bind(ik, toks[i], time.Time{}, "", recs[i].Message)
				bound++
			}
		}
		tr.end(id, bound)
		return nil
	})
	if err != nil {
		return nil, err
	}
	id := tr.begin("wal.replay", root)
	replayed := 0
	_, err = logs[0].ReplayAfter(0, func(b []logging.Record) error { replayed += len(b); return nil })
	tr.end(id, replayed)
	if err != nil {
		return nil, err
	}
	perRec("wal.encode_ns_per_rec", "wal.encode")
	perRec("wal.decode_ns_per_rec", "wal.decode")
	perRec("wal.append_ns_per_rec.none", "wal.append.none")
	perRec("wal.append_ns_per_rec.interval", "wal.append.interval")
	perRec("wal.append_ns_per_rec.always", "wal.append.always")
	perRec("wal.replay_ns_per_rec", "wal.replay")
	out["wal.sync_ms"] = msMetric(tr.durations("wal.sync"))
	out["wal.bytes_per_rec"] = metric{Value: float64(encoded) / float64(in.records), Unit: "B", N: in.records}
	perRec("nlp.tokenize_ns_per_rec", "nlp.tokenize")
	perRec("spell.lookup_ns_per_rec", "spell.lookup")
	perRec("extract.bind_ns_per_rec", "extract.bind")

	pool := batch.NewPool(0)
	const rents = 4096
	id = tr.begin("batch.rent_release", root)
	for i := 0; i < rents; i++ {
		pool.Get().Release()
	}
	tr.end(id, rents)
	perRec("batch.rent_release_ns", "batch.rent_release")

	// Streaming detection the way a tenant's worker runs it: a freshly
	// loaded model (cold lookup cache), first pass, then a second pass —
	// all memo hits when the cycle fits the caches, mostly misses again
	// when it does not, which is exactly the steady state served.
	det := model.Detector()
	sd := detect.NewStream(det, detect.StreamConfig{IdleTimeout: idleTimeout})
	var anomalies []detect.Anomaly
	for pass, name := range []string{"detect.consume_cold", "detect.consume_warm"} {
		err = in.eachBatch(pass, func(e, lo, hi int, v passView) error {
			recs = in.epochs[e].fill(recs[:0], lo, hi, v)
			id := tr.begin(name, root)
			as := sd.ConsumeBatch(recs, 1)
			tr.end(id, len(recs))
			if pass == 1 {
				anomalies = append(anomalies, as...)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	perRec("detect.consume_cold_ns_per_rec", "detect.consume_cold")
	perRec("detect.consume_warm_ns_per_rec", "detect.consume_warm")

	// Peek hits: the renderings of the newest epoch are the ones the
	// cache still holds whatever its size.
	last := in.epochs[len(in.epochs)-1]
	var msgs [][]byte
	for i := range last.recs {
		if _, _, _, hit := det.Cache.Peek([]byte(last.recs[i].Message)); hit {
			msgs = append(msgs, []byte(last.recs[i].Message))
		}
	}
	id = tr.begin("spell.cache_peek", root)
	for _, m := range msgs {
		det.Cache.Peek(m)
	}
	tr.end(id, len(msgs))
	perRec("spell.cache_peek_ns", "spell.cache_peek")

	// A checkpoint of the detector mid-stream, with the newest epoch's
	// sessions still in flight.
	st := sd.State()
	var cw countingWriter
	for i := 0; i < 3; i++ {
		cw.n = 0
		id = tr.begin("core.checkpoint_save", root)
		err = core.SaveCheckpointState(&cw, model, st, 0, nil)
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
	}
	out["core.checkpoint_save_ms"] = msMetric(tr.durations("core.checkpoint_save"))
	out["core.checkpoint_bytes"] = metric{Value: float64(cw.n), Unit: "B", N: 1}

	eng := analytics.NewEngine(analytics.Config{}, model.Graph)
	for lo := 0; lo < len(anomalies); lo += 256 {
		hi := lo + 256
		if hi > len(anomalies) {
			hi = len(anomalies)
		}
		id = tr.begin("analytics.observe", root)
		eng.ObserveBatch(anomalies[lo:hi])
		tr.end(id, hi-lo)
	}
	perRec("analytics.observe_ns_per_anomaly", "analytics.observe")
	return out, nil
}

// replicaServer times the ack path against an in-process server over
// its own state directory: the NDJSON handler on an in-memory request
// and, for the workload that sends no ILS1 itself, StreamConn.Send over
// loopback. The queue is
// sized to hold a whole pass, so nothing is refused and the ack never
// waits for the worker.
func (r *runner) replicaServer(root int32, model []byte) error {
	tr, in, dir := r.tr, r.in, r.d.dir
	models := filepath.Join(dir, "replica-models")
	if err := os.MkdirAll(models, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(models, tenantName+".json"), model, 0o644); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		ModelDir:        models,
		StateDir:        filepath.Join(dir, "replica-state"),
		QueueRecords:    in.records + replicaBatch,
		IngestWorkers:   1,
		CheckpointEvery: 5 * time.Second,
		Stream:          detect.StreamConfig{IdleTimeout: idleTimeout},
		WALSync:         "interval",
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	for _, ep := range in.epochs {
		ep.buildNDJSON()
	}
	h := srv.Handler()
	var body []byte
	err = in.eachBatch(0, func(e, lo, hi int, v passView) error {
		body = in.epochs[e].fillNDJSON(body[:0], lo, hi, 0, e, v)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant="+tenantName, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		id := tr.begin("server.ndjson_ack", root)
		h.ServeHTTP(rec, req)
		tr.end(id, hi-lo)
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("replica NDJSON ingest: %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	})
	if err != nil {
		return err
	}

	if !r.spec.ndjson {
		// An ILS1 workload times its own live sends instead.
		return nil
	}
	// Let the worker finish the first pass, so it is not still taking a
	// CPU from the second wire's ack path.
	for queued := 1.0; queued > 0; time.Sleep(5 * time.Millisecond) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		s := parseMetrics(rec.Body.String())
		if err := s.checkNames(); err != nil {
			return err
		}
		queued = s["intellogd_queue_records"]
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- srv.ServeStream(ln) }()
	cl := &server.Client{Base: "http://unused", Tenant: tenantName}
	sc, err := cl.DialStream(ln.Addr().String(), in.fw)
	if err != nil {
		return err
	}
	var recs []logging.Record
	err = in.eachBatch(1, func(e, lo, hi int, v passView) error {
		recs = in.epochs[e].fill(recs[:0], lo, hi, v)
		id := tr.begin("server.ils1_ack", root)
		_, err := sc.Send(recs)
		tr.end(id, hi-lo)
		return err
	})
	sc.Close()
	ln.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	return err
}

func msMetric(ds []time.Duration) metric {
	return metric{Value: median(msAll(ds)), Unit: "ms", N: len(ds)}
}
