package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// The serving oracle: one table of legs, one runner. Each leg boots a
// daemon, replays a corpus over one wire with N connections, optionally
// cuts the run (checkpoint + kill, or a WAL-only window + kill),
// restarts over the same state, flushes, and compares what the daemon
// served with a reference. Every cell (corpus × leg) must match its
// reference, unless the known-divergent ratchet lists it with exactly
// the counts it reports. Each test below runs the rows named after it.

type wire string

const (
	ndjson wire = "ndjson"
	ils1   wire = "ils1"
)

type cut string

const (
	noCut cut = ""
	// ckptKill replays the first half, checkpoints, and kills.
	ckptKill cut = "ckpt"
	// walKill replays a third, checkpoints, replays another third that
	// reaches only the WAL, and kills: boot replay must re-feed exactly
	// that window.
	walKill cut = "wal"
)

type reference int

const (
	// refBatch is batch detection over the corpus, read through one JSON
	// round trip as a report-API client sees it: the report endpoint
	// rewrites invalid UTF-8 (the line-fault corpora carry some) into
	// U+FFFD, and the round trip applies the same rewrite to the
	// reference. For valid UTF-8 it is the identity.
	refBatch reference = iota
	// refSerial is the serial NDJSON daemon (serialLeg) over the same
	// corpus. NDJSON ingest itself rewrites invalid UTF-8, so for the
	// line-fault corpora batch detection is not the NDJSON reference.
	refSerial
	// refSingleLife compares analytics (clusters and rollups) with the
	// same leg run in one life, without the cut: the engine's state must
	// be a pure function of the anomaly multiset.
	refSingleLife
)

type serveLeg struct {
	test    string // the test that runs this row
	wire    wire
	conns   int
	batch   int
	workers int
	cut     cut
	idle    time.Duration
	corpora []string // nil: the whole matrix
	ref     reference
}

// name is the leg's ratchet name.
func (l serveLeg) name() string {
	n := fmt.Sprintf("served-%s-c%d-w%d", l.wire, l.conns, l.workers)
	if l.cut != noCut {
		n += "-" + string(l.cut)
	}
	if l.idle > 0 {
		n += fmt.Sprintf("-idle%dm", l.idle/time.Minute)
	}
	return n
}

var sparkFaulted = []string{"spark-faulted"}

// serialLeg is refSerial's daemon.
var serialLeg = serveLeg{wire: ndjson, conns: 3, batch: 48, workers: 1}

var serveLegs = []serveLeg{
	// NDJSON over one connection, a clean and a faulted corpus.
	{test: "TestServeConformance", wire: ndjson, conns: 1, batch: 64, workers: 1,
		corpora: []string{"spark-clean", "spark-faulted"}},
	// The replay client shards by session, so concurrent senders keep
	// per-session order.
	{test: "TestServeConcurrentIngestConformance", wire: ndjson, conns: 4, batch: 32, workers: 1,
		corpora: sparkFaulted},
	// Session-sharded ingest workers against the serial daemon.
	{test: "TestServeShardedIngestConformance", wire: ndjson, conns: 3, batch: 48, workers: 4,
		ref: refSerial},
	// The checkpoint barrier cuts the accepted stream exactly with four
	// workers in flight.
	{test: "TestServeShardedKillRestartConformance", wire: ndjson, conns: 3, batch: 48, workers: 4, cut: ckptKill,
		corpora: sparkFaulted},
	{test: "TestServeKillRestartConformance", wire: ndjson, conns: 1, batch: 64, workers: 1, cut: ckptKill,
		corpora: sparkFaulted},
	// The crash window the WAL exists for: acked, never checkpointed.
	{test: "TestServeWALKillRestartConformance", wire: ndjson, conns: 1, batch: 64, workers: 1, cut: walKill,
		ref: refSerial},
	// ILS1 carries record bytes verbatim, so even the line-fault corpora
	// compare with batch detection.
	{test: "TestStreamServeConformance", wire: ils1, conns: 3, batch: 48, workers: 4},
	// The kill severs the live stream connections.
	{test: "TestStreamKillRestartConformance", wire: ils1, conns: 1, batch: 64, workers: 1, cut: ckptKill,
		corpora: sparkFaulted},
	{test: "TestServeAnalyticsKillRestartIdentity", wire: ndjson, conns: 1, batch: 64, workers: 1, cut: ckptKill,
		corpora: sparkFaulted, ref: refSingleLife},
	// The configuration the daemon ships: -idle 5m, WAL on, a crash
	// inside the un-checkpointed window.
	{test: "TestServeShippedConfig", wire: ils1, conns: 1, batch: 64, workers: 1, cut: walKill,
		idle: 5 * time.Minute},
}

// Each kept test runs its rows of serveLegs.

func TestServeConformance(t *testing.T)                   { runServeLegs(t) }
func TestServeConcurrentIngestConformance(t *testing.T)   { runServeLegs(t) }
func TestServeShardedIngestConformance(t *testing.T)      { runServeLegs(t) }
func TestServeShardedKillRestartConformance(t *testing.T) { runServeLegs(t) }
func TestServeKillRestartConformance(t *testing.T)        { runServeLegs(t) }
func TestServeWALKillRestartConformance(t *testing.T)     { runServeLegs(t) }
func TestStreamServeConformance(t *testing.T)             { runServeLegs(t) }
func TestStreamKillRestartConformance(t *testing.T)       { runServeLegs(t) }
func TestServeAnalyticsKillRestartIdentity(t *testing.T)  { runServeLegs(t) }
func TestServeShippedConfig(t *testing.T)                 { runServeLegs(t) }

// runServeLegs runs the rows named after the calling test, one parallel
// subtest per corpus.
func runServeLegs(t *testing.T) {
	ran := false
	for _, leg := range serveLegs {
		if leg.test != t.Name() {
			continue
		}
		ran = true
		for _, spec := range conformance.DefaultMatrix() {
			if leg.corpora != nil && !slices.Contains(leg.corpora, spec.Name) {
				continue
			}
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				checkServeLeg(t, leg, spec)
			})
		}
	}
	if !ran {
		t.Fatalf("no serving leg names %s", t.Name())
	}
}

// checkServeLeg runs one cell and judges it against its reference
// through the known-divergent ratchet. A cell whose counts already
// differ from the reference's is judged on counts only.
func checkServeLeg(t *testing.T, leg serveLeg, spec conformance.Spec) {
	recs := server.CorpusFor(spec)
	if leg.ref == refSingleLife {
		_, c := runServeLeg(t, leg, spec, recs)
		one := leg
		one.cut = noCut
		_, ref := runServeLeg(t, one, spec, recs)
		if want, got := analyticsView(t, ref), analyticsView(t, c); !bytes.Equal(got, want) {
			t.Errorf("clusters and rollups diverge from a single life\nwant:\n%s\ngot:\n%s", want, got)
		}
		return
	}

	want := referenceFor(t, leg.ref, spec)
	rep, _ := runServeLeg(t, leg, spec, recs)
	cell := conformance.Cell{Corpus: spec.Name, Leg: leg.name(), Anomalies: len(rep.Anomalies), Sessions: rep.Sessions}
	var got []byte
	if cell.Anomalies == want.Anomalies && cell.Sessions == want.Sessions {
		got = canonicalize(t, rep)
	}
	diverged := !bytes.Equal(got, want.Canon)
	if msg := conformance.KnownDivergent().Verdict(cell, diverged); msg != "" {
		if diverged && got != nil {
			msg += fmt.Sprintf("\nreference:\n%s\nserved:\n%s", want.Canon, got)
		}
		t.Fatal(msg)
	}
}

// runServeLeg replays recs through a fresh daemon as leg describes and
// returns the served report with a client of the daemon's last life,
// which stays up until the test ends. After a cut, the report is the
// findings read from the first life before its un-checkpointed window
// plus the second life's report, as a polling client would combine them.
func runServeLeg(t *testing.T, leg serveLeg, spec conformance.Spec, recs []logging.Record) (*detect.Report, *server.Client) {
	t.Helper()
	modelDir := t.TempDir()
	writeModel(t, modelDir, "acme", spec.Framework)
	cfg := server.Config{
		ModelDir:         modelDir,
		DefaultFramework: spec.Framework,
		IngestWorkers:    leg.workers,
		Stream:           detect.StreamConfig{IdleTimeout: leg.idle},
	}
	if leg.cut != noCut {
		cfg.StateDir = t.TempDir()
	}

	l := boot(t, cfg)
	var preKill []server.SeqAnomaly
	if leg.cut != noCut {
		cut1, cut2 := len(recs)/2, len(recs)/2
		if leg.cut == walKill {
			cut1, cut2 = len(recs)/3, 2*len(recs)/3
		}
		l.replay(t, leg, recs[:cut1])
		if err := l.c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		// Read the served findings before the WAL window: its records
		// replay in the second life and re-emit their findings there.
		var err error
		if preKill, err = l.c.AllAnomalies(); err != nil {
			t.Fatalf("pre-kill anomalies: %v", err)
		}
		l.replay(t, leg, recs[cut1:cut2])
		l.kill()

		l = boot(t, cfg)
		if leg.cut == walKill {
			if got := server.ScrapeValue(t, l.hs.URL, `intellogd_wal_replayed_records{tenant="acme"}`); got != float64(cut2-cut1) {
				t.Fatalf("wal_replayed_records = %v, want the %d-record crash window", got, cut2-cut1)
			}
		}
		recs = recs[cut2:]
	}
	l.replay(t, leg, recs)
	if _, err := l.c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	rep, err := l.c.Report()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if leg.cut == noCut {
		return &rep, l.c
	}

	// Seqs increase within the first life, and the restored detector
	// stamps past the persisted cursor, so pages of the two lives never
	// overlap.
	first, err := l.c.Anomalies(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, a := range append(preKill, first.Anomalies...) {
		if i > 0 && a.Seq <= last {
			t.Fatalf("anomaly seq %d does not advance past %d (%d findings before the kill)", a.Seq, last, len(preKill))
		}
		last = a.Seq
	}
	combined := &detect.Report{Sessions: rep.Sessions}
	for _, a := range preKill {
		combined.Anomalies = append(combined.Anomalies, a.Anomaly)
	}
	combined.Anomalies = append(combined.Anomalies, rep.Anomalies...)
	return combined, l.c
}

// life is one daemon process: the server, its HTTP front and a client.
type life struct {
	srv  *server.Server
	hs   *httptest.Server
	c    *server.Client
	addr string // the ILS1 listener, started on first use
}

// boot starts a daemon over cfg; it is closed when the test ends.
func boot(t *testing.T, cfg server.Config) *life {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &life{srv: srv, hs: hs, c: &server.Client{Base: hs.URL, Tenant: "acme"}}
}

// replay sends recs over leg's wire and requires every record acked.
func (l *life) replay(t *testing.T, leg serveLeg, recs []logging.Record) {
	t.Helper()
	if len(recs) == 0 {
		return
	}
	var res server.ReplayResult
	var err error
	if leg.wire == ils1 {
		if l.addr == "" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			go l.srv.ServeStream(ln)
			l.addr = ln.Addr().String()
		}
		res, err = l.c.ReplayStream(l.addr, recs, server.StreamReplayOptions{
			Batch: leg.batch, Concurrency: leg.conns, Window: 4,
		})
	} else {
		res, err = l.c.Replay(recs, server.ReplayOptions{Batch: leg.batch, Concurrency: leg.conns})
	}
	if err != nil {
		t.Fatalf("%s replay: %v", leg.wire, err)
	}
	if res.Records != len(recs) {
		t.Fatalf("%s replay acked %d records, sent %d", leg.wire, res.Records, len(recs))
	}
}

// kill crashes the daemon: no drain, no final checkpoint, and the live
// stream connections are severed.
func (l *life) kill() {
	l.hs.Close()
	l.srv.Kill()
}

// analyticsView renders the daemon's clusters and rollups.
func analyticsView(t *testing.T, c *server.Client) []byte {
	t.Helper()
	cl, err := c.Clusters(0, 0)
	if err != nil {
		t.Fatalf("clusters: %v", err)
	}
	ro, err := c.Rollups(0, 0)
	if err != nil {
		t.Fatalf("rollups: %v", err)
	}
	out, err := json.MarshalIndent([]any{cl, ro}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceFor returns the reference report of one corpus in canonical
// form, with its counts.
func referenceFor(t *testing.T, ref reference, spec conformance.Spec) conformance.PathReport {
	t.Helper()
	if ref == refSerial {
		return server.Memoize("serial/"+spec.Name, func() conformance.PathReport {
			rep, _ := runServeLeg(t, serialLeg, spec, server.CorpusFor(spec))
			return pathReport(t, rep)
		})
	}
	return server.Memoize("batch/"+spec.Name, func() conformance.PathReport {
		m := conformance.ModelFor(spec.Framework)
		raw, err := json.Marshal(conformance.BatchPath(m.Detector(), server.CorpusFor(spec)))
		if err != nil {
			t.Fatal(err)
		}
		var rep detect.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		return pathReport(t, &rep)
	})
}

func pathReport(t *testing.T, rep *detect.Report) conformance.PathReport {
	return conformance.PathReport{Anomalies: len(rep.Anomalies), Sessions: rep.Sessions, Canon: canonicalize(t, rep)}
}

func canonicalize(t *testing.T, rep *detect.Report) []byte {
	t.Helper()
	canon, err := conformance.Canonicalize(rep)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// writeModel trains (via the shared conformance cache) and saves the
// framework's reference model under dir as tenant `name`.
func writeModel(t *testing.T, dir, name string, fw logging.Framework) {
	t.Helper()
	raw := server.Memoize("model/"+string(fw), func() []byte {
		var buf bytes.Buffer
		if err := conformance.ModelFor(fw).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
	if err := os.WriteFile(filepath.Join(dir, name+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
