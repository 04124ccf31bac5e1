// Package server is intellogd's serving layer: a multi-tenant HTTP
// front-end over the streaming detector. Each tenant is a trained core
// model whose log stream is ingested as NDJSON batches on /v1/ingest,
// consumed by a dedicated worker through a detect.StreamDetector, and
// queried back through cursor-paginated anomaly, report and HW-graph
// endpoints. Production concerns are first-class: per-tenant bounded
// ingest queues with 429 admission control, a background checkpointer
// built on core.SaveCheckpointState so a restart resumes mid-stream, an LRU
// cap on resident tenants, Prometheus metrics and pprof.
package server

import (
	"container/list"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"

	"intellog/internal/analytics"
	"intellog/internal/batch"
	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/metrics"
	"intellog/internal/wal"
)

// checkpointExt is the suffix of per-tenant checkpoint files under
// Config.StateDir.
const checkpointExt = ".ckpt"

// modelExt is the suffix of per-tenant model files under Config.ModelDir.
const modelExt = ".json"

// walDirExt and dlqDirExt are the suffixes of the per-tenant
// write-ahead-log and dead-letter directories under Config.StateDir.
const (
	walDirExt = ".wal"
	dlqDirExt = ".dlq"
)

// Config tunes the serving layer.
type Config struct {
	// ModelDir holds one trained model per tenant: <dir>/<tenant>.json,
	// as written by `intellog train`. A tenant with no model file is
	// unknown (404).
	ModelDir string
	// StateDir holds per-tenant checkpoints: <dir>/<tenant>.ckpt. Empty
	// disables checkpointing (and restart recovery).
	StateDir string
	// MaxTenants caps resident tenants; past it the least-recently-used
	// tenant is drained, checkpointed and evicted. 0 means a default of
	// 32; negative means unbounded.
	MaxTenants int
	// QueueRecords bounds each tenant's ingest queue in records; a batch
	// that would exceed it is refused with 429. 0 means a default of
	// 8192.
	QueueRecords int
	// IngestWorkers sets each tenant's ingest worker-pool size. Records
	// route to workers by session hash, so per-session ingest order is
	// preserved at any size while sessions proceed in parallel; control
	// ops (checkpoint, flush, drain) barrier the whole pool, so their
	// exact-cut semantics are unchanged. 0 or 1 means a single worker
	// (the serial pipeline).
	IngestWorkers int
	// AnomalyLog bounds each tenant's retained anomaly history (the
	// /v1/anomalies window). 0 means a default of 65536; negative means
	// unbounded.
	AnomalyLog int
	// CheckpointEvery is the background checkpoint cadence; 0 disables
	// periodic checkpoints (final checkpoints on shutdown still happen).
	CheckpointEvery time.Duration
	// Stream configures each tenant's streaming detector (idle timeout,
	// session/message caps).
	Stream detect.StreamConfig
	// DefaultFramework is assumed for ingested records that carry no
	// framework and for raw-line parsing; empty means spark.
	DefaultFramework logging.Framework
	// MaxBodyBytes bounds one ingest request body. 0 means 8 MiB.
	MaxBodyBytes int64
	// MaxRecordBytes bounds one ingest record (NDJSON line, or a
	// structured record's string fields on the binary wire). A larger
	// record dead-letters individually instead of failing its batch. 0
	// means 1 MiB.
	MaxRecordBytes int
	// DisableWAL turns the per-tenant write-ahead log off. With a
	// StateDir and the WAL on (the default), every 202-acked record is
	// logged before it is queued and replayed through the model on boot,
	// so a crash between checkpoints loses nothing; without it, recovery
	// falls back to the last checkpoint alone. No StateDir means no WAL
	// regardless.
	DisableWAL bool
	// WALSync is the WAL fsync policy: "always", "interval" or "none"
	// (empty means interval; see wal.ParseSyncPolicy).
	WALSync string
	// WALSyncEvery is the fsync cadence under the "interval" policy; 0
	// means 100ms.
	WALSyncEvery time.Duration
	// WALSegmentBytes is the WAL segment rotation threshold; 0 means
	// 8 MiB.
	WALSegmentBytes int64
	// DLQRetain bounds each tenant's live dead-letter entries (oldest
	// dropped past it). 0 means 4096; negative means unbounded.
	DLQRetain int
	// Analytics tunes each tenant's anomaly-aggregation engine (cluster
	// threshold, rollup window, SLO budget, table bounds). Zero values
	// take the analytics package defaults.
	Analytics analytics.Config
}

// defaults fills zero values.
func (c *Config) defaults() {
	if c.MaxTenants == 0 {
		c.MaxTenants = 32
	}
	if c.QueueRecords == 0 {
		c.QueueRecords = 8192
	}
	if c.AnomalyLog == 0 {
		c.AnomalyLog = 65536
	}
	if c.DefaultFramework == "" {
		c.DefaultFramework = logging.Spark
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxRecordBytes == 0 {
		c.MaxRecordBytes = 1 << 20
	}
	if c.DLQRetain == 0 {
		c.DLQRetain = 4096
	}
}

// walEnabled reports whether tenants run with a write-ahead log.
func (c *Config) walEnabled() bool {
	return c.StateDir != "" && !c.DisableWAL
}

// queueBatches sizes a tenant's task channel. The record budget is the
// real bound; the channel just needs enough slots that batch count never
// binds before it under reasonable batch sizes, without costing memory
// per idle tenant.
func (c *Config) queueBatches() int {
	n := c.QueueRecords / 8
	if n < 16 {
		n = 16
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

// ingestWorkers is the per-tenant worker-pool size (≥ 1).
func (c *Config) ingestWorkers() int {
	if c.IngestWorkers <= 1 {
		return 1
	}
	return c.IngestWorkers
}

// Server is the serving layer. Create with New, expose via Handler, and
// stop with Close (graceful) or Kill (abandon, for crash testing).
type Server struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*list.Element // name → element holding *tenant
	lru      *list.List               // front = most recently used
	evicting map[string]chan struct{} // names mid-eviction

	reg    *metrics.Registry
	closed chan struct{}
	stopWG sync.WaitGroup // background checkpointer

	// batches is the server-wide record-batch pool: both ingest wires
	// fill rented batches and the tenant workers release them after the
	// detector consumes in place — see internal/batch for the ownership
	// contract.
	batches *batch.Pool

	// streamConns tracks live binary-protocol ingest connections (see
	// ServeStream) so shutdown can sever them.
	streamMu    sync.Mutex
	streamConns map[net.Conn]struct{}
	// streamIdle is how long an established binary-protocol connection
	// may go without a frame: streamIdleTimeout, shortened only by tests.
	streamIdle time.Duration

	started time.Time
}

// New builds a Server and restores every tenant that left a checkpoint
// in StateDir (bounded by MaxTenants; beyond that the rest stay on disk
// until first use).
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	if _, err := wal.ParseSyncPolicy(cfg.WALSync); err != nil {
		return nil, err
	}
	if err := cfg.Analytics.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		tenants:    map[string]*list.Element{},
		lru:        list.New(),
		evicting:   map[string]chan struct{}{},
		reg:        metrics.NewRegistry(),
		closed:     make(chan struct{}),
		batches:    batch.NewPool(0),
		streamIdle: streamIdleTimeout,
		started:    time.Now(),
	}
	s.registerGauges()
	if err := s.restoreCheckpointed(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery > 0 {
		s.stopWG.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// restoreCheckpointed pre-warms tenants whose checkpoints survived the
// previous process, so sessions that were in flight at shutdown resume
// before any new traffic arrives.
func (s *Server) restoreCheckpointed() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var name string
		fromWAL := false
		switch {
		case !e.IsDir() && strings.HasSuffix(e.Name(), checkpointExt):
			name = strings.TrimSuffix(e.Name(), checkpointExt)
		case e.IsDir() && strings.HasSuffix(e.Name(), walDirExt) && s.cfg.walEnabled():
			// A WAL directory without a checkpoint is a tenant that
			// crashed before its first checkpoint: its acked records live
			// only in the log, so it must boot (and replay) now, not at
			// first use.
			name = strings.TrimSuffix(e.Name(), walDirExt)
			fromWAL = true
		default:
			continue
		}
		// A stray file with an invalid tenant basename is junk, not a
		// reason to refuse to boot: skip it (loadTenant would never have
		// written it, so no real state is being ignored).
		if !validTenantName(name) {
			log.Printf("intellogd: ignoring state %s: invalid tenant name",
				filepath.Join(s.cfg.StateDir, e.Name()))
			continue
		}
		if s.cfg.MaxTenants > 0 && s.lru.Len() >= s.cfg.MaxTenants {
			break
		}
		_, err := s.Tenant(name)
		if err != nil && fromWAL && errors.As(err, &errUnknownTenant{}) {
			// An orphaned WAL (model deleted since) shouldn't block boot.
			log.Printf("intellogd: ignoring wal for %s: %v", name, err)
			continue
		}
		if err != nil {
			return fmt.Errorf("restore tenant %s: %w", name, err)
		}
	}
	return nil
}

// Tenant returns the named tenant, loading it on first use: from its
// checkpoint when one exists (restart recovery), otherwise from its
// trained model file. Loading past MaxTenants evicts the
// least-recently-used tenant (drained and checkpointed first).
func (s *Server) Tenant(name string) (*tenant, error) {
	if !validTenantName(name) {
		return nil, errBadTenant
	}
	for {
		s.mu.Lock()
		if e, ok := s.tenants[name]; ok {
			s.lru.MoveToFront(e)
			s.mu.Unlock()
			return e.Value.(*tenant), nil
		}
		// A tenant mid-eviction still owns its checkpoint file; wait for
		// the eviction to finish before reloading, or the fresh instance
		// would restore pre-eviction state.
		if ch, ok := s.evicting[name]; ok {
			s.mu.Unlock()
			<-ch
			continue
		}
		s.mu.Unlock()

		t, err := s.loadTenant(name)
		if err != nil {
			return nil, err
		}

		s.mu.Lock()
		if e, ok := s.tenants[name]; ok {
			// Lost a load race; keep the resident instance.
			s.lru.MoveToFront(e)
			s.mu.Unlock()
			t.close(false)
			return e.Value.(*tenant), nil
		}
		e := s.lru.PushFront(t)
		s.tenants[name] = e
		var evictees []*tenant
		for s.cfg.MaxTenants > 0 && s.lru.Len() > s.cfg.MaxTenants {
			back := s.lru.Back()
			ev := back.Value.(*tenant)
			s.lru.Remove(back)
			delete(s.tenants, ev.name)
			s.evicting[ev.name] = make(chan struct{})
			evictees = append(evictees, ev)
		}
		s.mu.Unlock()

		for _, ev := range evictees {
			ev.close(true)
			s.mu.Lock()
			close(s.evicting[ev.name])
			delete(s.evicting, ev.name)
			s.mu.Unlock()
		}
		return t, nil
	}
}

// errBadTenant rejects tenant names that could escape the model/state
// directories or collide with file suffixes.
var errBadTenant = fmt.Errorf("invalid tenant name")

// errUnknownTenant marks a tenant with no trained model on disk.
type errUnknownTenant struct{ name string }

func (e errUnknownTenant) Error() string {
	return fmt.Sprintf("unknown tenant %q: no model or checkpoint on disk", e.name)
}

// validTenantName permits [a-zA-Z0-9._-], no leading dot, length 1..128.
func validTenantName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}

// walDir is the tenant's write-ahead-log segment directory.
func (s *Server) walDir(name string) string {
	return filepath.Join(s.cfg.StateDir, name+walDirExt)
}

// dlqDir is the tenant's dead-letter segment directory; empty (the
// DLQ's memory-only mode) without a state dir.
func (s *Server) dlqDir(name string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, name+dlqDirExt)
}

// loadTenant reads a tenant's state from disk: checkpoint first (it
// embeds the model), then the trained model file.
func (s *Server) loadTenant(name string) (*tenant, error) {
	if s.cfg.StateDir != "" {
		path := filepath.Join(s.cfg.StateDir, name+checkpointExt)
		if f, err := os.Open(path); err == nil {
			m, st, _, analyticsState, err := core.LoadCheckpointState(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("checkpoint %s: %w", path, err)
			}
			return newTenant(s, name, m, st, analyticsState)
		}
	}
	if s.cfg.ModelDir == "" {
		return nil, errUnknownTenant{name}
	}
	path := filepath.Join(s.cfg.ModelDir, name+modelExt)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, errUnknownTenant{name}
		}
		return nil, err
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", path, err)
	}
	return newTenant(s, name, m, nil, nil)
}

// resident snapshots the resident tenants (most recently used first).
func (s *Server) resident() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*tenant, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*tenant))
	}
	return out
}

// checkpointLoop periodically checkpoints every resident tenant. The
// checkpoint op rides the tenant queue (exact cut semantics); a tenant
// whose queue is saturated skips the cycle rather than stalling ingest.
func (s *Server) checkpointLoop() {
	defer s.stopWG.Done()
	ticker := time.NewTicker(s.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			for _, t := range s.resident() {
				t := t
				ok := t.controlCut(func(cut uint64) {
					if err := t.saveCheckpoint(cut); err == nil {
						s.reg.Counter("intellogd_checkpoints_total",
							"checkpoints written per tenant",
							metrics.Label{Key: "tenant", Value: t.name}).Inc()
					} else {
						s.reg.Counter("intellogd_checkpoint_errors_total",
							"failed checkpoint writes per tenant",
							metrics.Label{Key: "tenant", Value: t.name}).Inc()
					}
				}, false)
				if !ok {
					s.reg.Counter("intellogd_checkpoint_skips_total",
						"checkpoint cycles skipped because the tenant queue was saturated",
						metrics.Label{Key: "tenant", Value: t.name}).Inc()
				}
			}
		}
	}
}

// Close is the graceful shutdown: the background checkpointer stops,
// every tenant queue is closed and drained, and final checkpoints are
// written. The HTTP listener should be shut down first so no new ingest
// races the drain.
func (s *Server) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.closeStreamConns()
	s.stopWG.Wait()
	var firstErr error
	for _, t := range s.resident() {
		if err := t.close(true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Kill is the crash-shaped stop used by tests and kill/resume drills: it
// stops background work and abandons tenant state without writing final
// checkpoints — whatever the last checkpoint captured is what a
// successor process will see.
func (s *Server) Kill() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.closeStreamConns()
	s.stopWG.Wait()
	for _, t := range s.resident() {
		t.close(false)
	}
}

// registerGauges wires the scrape-time gauge collectors: queue and
// session state read straight off the detectors, plus the model lookup
// cache hit rate.
func (s *Server) registerGauges() {
	perTenant := func(value func(*tenant) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			var out []metrics.Sample
			for _, t := range s.resident() {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Key: "tenant", Value: t.name}},
					Value:  value(t),
				})
			}
			return out
		}
	}
	s.reg.CounterFunc("intellogd_ingest_records_total",
		"records accepted onto ingest queues per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.records.Load()) }))
	s.reg.CounterFunc("intellogd_ingest_batches_total",
		"ingest batches accepted per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.batches.Load()) }))
	s.reg.CounterFunc("intellogd_ingest_rejected_total",
		"ingest batches refused with 429 (backpressure) per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.rejected.Load()) }))
	s.reg.CounterFunc("intellogd_ingest_skipped_total",
		"ingested lines dropped (unparsable or no session) per tenant, counted once per accepted batch",
		perTenant(func(t *tenant) float64 { return float64(t.skipped.Load()) }))
	s.reg.GaugeFunc("intellogd_pending_sessions",
		"in-flight sessions per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.sd.Pending()) }))
	s.reg.GaugeFunc("intellogd_sessions_seen",
		"sessions ever opened per tenant (survives checkpoints)",
		perTenant(func(t *tenant) float64 { return float64(t.sd.SessionsSeen()) }))
	s.reg.GaugeFunc("intellogd_queue_records",
		"ingested records queued but not yet consumed, per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.pending.Load()) }))
	s.reg.GaugeFunc("intellogd_stream_held_connections",
		"ILS1 connections holding a frame the tenant's queue has no room for, per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.held.Load()) }))
	s.reg.GaugeFunc("intellogd_expiry_heap_depth",
		"scheduled idle-expiry heap entries per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.sd.ExpiryDepth()) }))
	s.reg.GaugeFunc("intellogd_anomaly_log_size",
		"anomalies retained in the query window per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.sink.len()) }))
	s.reg.GaugeFunc("intellogd_lookup_cache_hits",
		"model lookup-cache hits per tenant",
		perTenant(func(t *tenant) float64 {
			h, _ := t.det.Cache.Stats()
			return float64(h)
		}))
	s.reg.GaugeFunc("intellogd_lookup_cache_misses",
		"model lookup-cache misses per tenant",
		perTenant(func(t *tenant) float64 {
			_, m := t.det.Cache.Stats()
			return float64(m)
		}))
	s.reg.GaugeFunc("intellogd_lookup_cache_entries",
		"renderings held in the model lookup cache per tenant (bounded by its capacity)",
		perTenant(func(t *tenant) float64 { return float64(t.det.Cache.Len()) }))
	s.reg.CounterFunc("intellogd_lookup_cache_declined_total",
		"lookup-cache inserts the doorkeeper declined (first sightings while full) per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.det.Cache.Declined()) }))
	s.reg.CounterFunc("intellogd_wal_replayed_records",
		"records recovered from the write-ahead log at tenant boot",
		perTenant(func(t *tenant) float64 { return float64(t.walReplayed.Load()) }))
	s.reg.GaugeFunc("intellogd_wal_seq",
		"newest write-ahead-log record sequence per tenant",
		perTenant(func(t *tenant) float64 {
			if t.wal == nil {
				return 0
			}
			return float64(t.wal.Seq())
		}))
	s.reg.GaugeFunc("intellogd_wal_segments",
		"live write-ahead-log segment files per tenant",
		perTenant(func(t *tenant) float64 {
			if t.wal == nil {
				return 0
			}
			return float64(t.wal.Segments())
		}))
	s.reg.GaugeFunc("intellogd_dlq_depth",
		"live dead-letter entries per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.dlq.Depth()) }))
	s.reg.CounterFunc("intellogd_dlq_dropped_total",
		"dead-letter entries discarded by the retention bound per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.dlq.Dropped()) }))
	s.reg.CounterFunc("intellogd_anomaly_log_trimmed_total",
		"anomalies dropped from the query window by retention per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.sink.trimmedCount()) }))
	s.reg.CounterFunc("intellogd_analytics_anomalies_observed_total",
		"anomalies folded into the analytics engine per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().Observed) }))
	s.reg.GaugeFunc("intellogd_analytics_shapes",
		"distinct anomaly templates tracked per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().Shapes) }))
	s.reg.GaugeFunc("intellogd_analytics_clusters",
		"live near-duplicate anomaly clusters per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().Clusters) }))
	s.reg.GaugeFunc("intellogd_analytics_rollup_buckets",
		"rollup windows retained per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().Buckets) }))
	s.reg.GaugeFunc("intellogd_analytics_tracked_sessions",
		"sessions with deviation evidence tracked per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().TrackedSessions) }))
	s.reg.CounterFunc("intellogd_analytics_localizations_total",
		"root-cause localizations computed per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().Localizations) }))
	s.reg.GaugeFunc("intellogd_analytics_alerts_firing",
		"SLO burn-rate alerts currently firing per tenant",
		perTenant(func(t *tenant) float64 { return float64(t.engine.Stats().AlertsFiring) }))
	s.reg.GaugeFunc("intellogd_resident_tenants",
		"tenants currently resident",
		func() []metrics.Sample {
			s.mu.Lock()
			n := s.lru.Len()
			s.mu.Unlock()
			return []metrics.Sample{{Value: float64(n)}}
		})
	s.reg.GaugeFunc("intellogd_uptime_seconds",
		"seconds since the server started",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: time.Since(s.started).Seconds()}}
		})
	one := func(v float64) []metrics.Sample { return []metrics.Sample{{Value: v}} }
	s.reg.CounterFunc("intellogd_batch_pool_hits_total",
		"batch-pool rentals served from the freelist",
		func() []metrics.Sample { return one(float64(s.batches.Stats().Hits)) })
	// The pool is one freelist, so nothing is ever stolen; the family
	// stays registered at 0 because bench/ sums it into its hit share.
	s.reg.CounterFunc("intellogd_batch_pool_steals_total",
		"always 0: the batch pool is a single freelist with no sibling shards to steal from (kept for scrapers that sum it)",
		func() []metrics.Sample { return one(0) })
	s.reg.CounterFunc("intellogd_batch_pool_misses_total",
		"batch-pool rentals that allocated a fresh batch",
		func() []metrics.Sample { return one(float64(s.batches.Stats().Misses)) })
	s.reg.GaugeFunc("intellogd_batch_pool_outstanding",
		"pooled batches currently rented and not yet released; a growing floor at quiesce is a leak",
		func() []metrics.Sample { return one(float64(s.batches.Stats().Outstanding)) })
	// Runtime GC passthrough, so replay harnesses can measure collector
	// pressure (and allocs/record, from the mallocs delta) off /metrics
	// instead of attaching a profiler.
	var msMu sync.Mutex
	var msAt time.Time
	var ms runtime.MemStats
	memstats := func() *runtime.MemStats {
		msMu.Lock()
		defer msMu.Unlock()
		// One stop-the-world read covers all the GC collectors of a
		// scrape (and any scrape burst inside the freshness window).
		if time.Since(msAt) > 50*time.Millisecond {
			runtime.ReadMemStats(&ms)
			msAt = time.Now()
		}
		return &ms
	}
	s.reg.GaugeFunc("intellogd_gc_cpu_fraction",
		"fraction of available CPU spent in the garbage collector since process start",
		func() []metrics.Sample { return one(memstats().GCCPUFraction) })
	s.reg.CounterFunc("intellogd_gc_pause_seconds_total",
		"cumulative stop-the-world GC pause time",
		func() []metrics.Sample { return one(float64(memstats().PauseTotalNs) / 1e9) })
	s.reg.CounterFunc("intellogd_gc_cycles_total",
		"completed garbage-collection cycles",
		func() []metrics.Sample { return one(float64(memstats().NumGC)) })
	s.reg.CounterFunc("intellogd_mallocs_total",
		"cumulative heap objects allocated (runtime.MemStats.Mallocs)",
		func() []metrics.Sample { return one(float64(memstats().Mallocs)) })
	s.reg.GaugeFunc("intellogd_heap_alloc_bytes",
		"bytes of allocated heap objects, live and not yet swept garbage alike (runtime.MemStats.HeapAlloc)",
		func() []metrics.Sample { return one(float64(memstats().HeapAlloc)) })
	// The live heap and the collector's goal come from runtime/metrics,
	// whose reads stop no goroutine: live is what the last cycle marked,
	// which HeapAlloc mixes with unswept garbage.
	heapGauge := func(name string) func() []metrics.Sample {
		return func() []metrics.Sample {
			rs := []rtmetrics.Sample{{Name: name}}
			rtmetrics.Read(rs)
			return one(float64(rs[0].Value.Uint64()))
		}
	}
	s.reg.GaugeFunc("intellogd_heap_live_bytes",
		"heap bytes the last garbage collection marked live (runtime/metrics /gc/heap/live:bytes)",
		heapGauge("/gc/heap/live:bytes"))
	s.reg.GaugeFunc("intellogd_heap_goal_bytes",
		"heap size the collector paces the current cycle to end at (runtime/metrics /gc/heap/goal:bytes)",
		heapGauge("/gc/heap/goal:bytes"))
}
