// Command intellogd is the IntelLog serving daemon: a multi-tenant HTTP
// service that ingests NDJSON log-record batches into per-tenant
// streaming detectors and serves anomaly, report and HW-graph queries.
//
// Usage:
//
//	intellogd -addr :7171 -models ./models -state ./state
//
// Each tenant is a trained model file <models>/<tenant>.json (as written
// by `intellog train`). Checkpoints land in <state>/<tenant>.ckpt; on
// restart the daemon resumes every checkpointed tenant mid-stream.
// SIGTERM/SIGINT triggers a graceful drain: the listener stops, queued
// ingest is consumed, final checkpoints are written, and the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"intellog/internal/analytics"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":7171", "listen address")
		streamAddr = flag.String("stream-addr", "", "binary ingest protocol listen address (empty disables)")
		models     = flag.String("models", "models", "directory of trained models (<tenant>.json)")
		state      = flag.String("state", "", "checkpoint directory (<tenant>.ckpt); empty disables checkpointing")
		maxTenants = flag.Int("max-tenants", 32, "resident tenant cap (LRU eviction past it; <0 unbounded)")
		queue      = flag.Int("queue", 8192, "per-tenant ingest queue budget in records (429 past it)")
		workers    = flag.Int("ingest-workers", 1, "per-tenant ingest workers (session-sharded; 1 = serial pipeline)")
		anomalyLog = flag.Int("anomaly-log", 65536, "per-tenant retained anomaly window (<0 unbounded)")
		ckptEvery  = flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint cadence (0 disables)")
		idle       = flag.Duration("idle", 5*time.Minute, "session idle timeout before auto-close (0 disables)")
		maxSess    = flag.Int("max-sessions", 0, "in-flight session cap per tenant (0 unbounded)")
		maxMsgs    = flag.Int("max-msgs", 0, "per-session buffered message cap (0 unbounded)")
		framework  = flag.String("framework", "spark", "default framework for records that carry none: "+frameworkNames())
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "in-flight HTTP request drain budget on shutdown")

		walOn       = flag.Bool("wal", true, "write-ahead-log acked batches (needs -state; crash recovery replays the un-checkpointed suffix)")
		walSync     = flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | none")
		walSyncEvry = flag.Duration("wal-sync-every", 100*time.Millisecond, "max un-fsynced WAL window under -wal-sync interval")
		walSegBytes = flag.Int64("wal-segment-bytes", 8<<20, "WAL segment rotation size")
		maxRecBytes = flag.Int("max-record-bytes", 1<<20, "single-record size cap; larger records dead-letter instead of ingesting")
		dlqRetain   = flag.Int("dlq-retain", 4096, "per-tenant dead-letter retention in records (<0 unbounded)")

		clusterThreshold = flag.Float64("cluster-threshold", 0, "anomaly cluster cosine similarity threshold (0 = default 0.60)")
		rollupWindow     = flag.Duration("rollup-window", 0, "rollup bucket width (0 = default 1m)")
		sloBudget        = flag.Float64("slo-budget", 0, "anomaly budget per rollup window for burn-rate alerts (0 = default 10)")
	)
	flag.Parse()
	fw, err := defaultFramework(*framework)
	if err != nil {
		log.Fatalf("intellogd: %v", err)
	}

	srv, err := server.New(server.Config{
		ModelDir:        *models,
		StateDir:        *state,
		MaxTenants:      *maxTenants,
		QueueRecords:    *queue,
		IngestWorkers:   *workers,
		AnomalyLog:      *anomalyLog,
		CheckpointEvery: *ckptEvery,
		Stream: detect.StreamConfig{
			IdleTimeout:    *idle,
			MaxSessions:    *maxSess,
			MaxSessionMsgs: *maxMsgs,
		},
		DefaultFramework: fw,
		DisableWAL:       !*walOn,
		WALSync:          *walSync,
		WALSyncEvery:     *walSyncEvry,
		WALSegmentBytes:  *walSegBytes,
		MaxRecordBytes:   *maxRecBytes,
		DLQRetain:        *dlqRetain,
		Analytics: analytics.Config{
			Threshold: *clusterThreshold,
			Window:    *rollupWindow,
			Budget:    *sloBudget,
		},
	})
	if err != nil {
		log.Fatalf("intellogd: %v", err)
	}

	httpLn, streamLn, err := listen(*addr, *streamAddr)
	if err != nil {
		log.Fatalf("intellogd: %v", err)
	}
	hs := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(httpLn) }()
	if streamLn != nil {
		go func() {
			if err := srv.ServeStream(streamLn); err != nil {
				errCh <- err
			}
		}()
	}
	log.Printf("intellogd: serving on %s (stream=%s models=%s state=%s)",
		*addr, orNone(*streamAddr), *models, orNone(*state))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("intellogd: %v, draining", s)
	case err := <-errCh:
		log.Fatalf("intellogd: listener: %v", err)
	}

	// Stop the listeners first so no new ingest races the drain, then let
	// the serving layer consume what it already accepted and write final
	// checkpoints (Close also severs live stream connections).
	if streamLn != nil {
		streamLn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("intellogd: http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("intellogd: drain: %v", err)
	}
	log.Printf("intellogd: drained, exiting")
}

// listen binds the HTTP listener and, when streamAddr is set, the binary
// ingest listener. Both are bound before either is served: a client that
// sees /healthz answer may dial the stream port at once, so the stream
// port has to be accepting connections by then.
func listen(addr, streamAddr string) (httpLn, streamLn net.Listener, err error) {
	if httpLn, err = net.Listen("tcp", addr); err != nil {
		return nil, nil, fmt.Errorf("listener: %w", err)
	}
	if streamAddr != "" {
		if streamLn, err = net.Listen("tcp", streamAddr); err != nil {
			httpLn.Close()
			return nil, nil, fmt.Errorf("stream listener: %w", err)
		}
	}
	return httpLn, streamLn, nil
}

// readHeaderTimeout bounds how long a peer may take to send its request
// headers. Without it a peer that opens a connection and never finishes
// them pins a goroutine forever.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the daemon's HTTP server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// defaultFramework validates -framework. An unknown name must fail the
// boot: the raw-line parser would otherwise read it with the Hadoop
// layout and mis-parse every line that names no framework.
func defaultFramework(name string) (logging.Framework, error) {
	if fw := logging.Framework(name); fw.Known() {
		return fw, nil
	}
	return "", fmt.Errorf("unknown -framework %q (want %s)", name, frameworkNames())
}

// frameworkNames renders logging.Frameworks for -framework's help.
func frameworkNames() string {
	names := make([]string, len(logging.Frameworks))
	for i, fw := range logging.Frameworks {
		names[i] = string(fw)
	}
	return strings.Join(names, " | ")
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
