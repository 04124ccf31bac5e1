package server

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"intellog/internal/logging"
)

// retrySleep pauses a replay worker before it retries a 429'd batch.
// Swappable so tests can observe backoff decisions without real sleeps.
var retrySleep = time.Sleep

// minRetryDelay floors every backoff sleep. Without it a tiny (or
// absent) Retry-After hint — or the jitter rounding one down — yields a
// zero-length sleep, and a refused worker busy-loops against a server
// that is saturated by definition, burning both sides' CPU on retries
// that cannot succeed yet.
const minRetryDelay = 10 * time.Millisecond

// retryDelay jitters the server's Retry-After hint by ±20%: when many
// replay workers are refused in the same admission window, a bare hint
// would wake them in lockstep and they'd collide at the queue again;
// spreading the wakeups lets the pool drain between waves. The result
// is never below minRetryDelay, hint or no hint.
func retryDelay(hint time.Duration, rng *rand.Rand) time.Duration {
	if hint <= 0 {
		return minRetryDelay
	}
	d := time.Duration(float64(hint) * (0.8 + 0.4*rng.Float64()))
	if d < minRetryDelay {
		d = minRetryDelay
	}
	return d
}

// ReplayOptions tunes a load replay against a running server.
type ReplayOptions struct {
	// Batch is the records-per-request batch size (default 256).
	Batch int
	// Concurrency is the number of parallel sender workers (default 1).
	// Records are sharded across workers by session hash, so each
	// session's records still arrive in order — the invariant the
	// streaming detector's conformance guarantee rests on.
	Concurrency int
	// MaxRetries bounds retries per batch on 429 (default 50).
	MaxRetries int
}

// ReplayResult summarizes one replay run.
type ReplayResult struct {
	Records   int           // records sent (accepted)
	Batches   int           // batches posted successfully
	Rejected  int           // 429 responses absorbed (each retried)
	Duration  time.Duration // wall time of the send phase
	P50       time.Duration // median per-batch POST latency
	P99       time.Duration // 99th percentile per-batch POST latency
	RecPerSec float64       // accepted records / wall seconds
}

// partitionBySession splits recs across n replay workers by session
// route, preserving input order within each part.
func partitionBySession(recs []logging.Record, n int) [][]logging.Record {
	parts := make([][]logging.Record, n)
	for _, r := range recs {
		i := routeSession(r.SessionID, n)
		parts[i] = append(parts[i], r)
	}
	return parts
}

// Replay streams the records to the server in batches, honoring 429
// backpressure (sleep Retry-After, retry the same batch). Records are
// partitioned across workers by session so per-session order is
// preserved at any concurrency.
func (c *Client) Replay(recs []logging.Record, opts ReplayOptions) (ReplayResult, error) {
	if opts.Batch <= 0 {
		opts.Batch = 256
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 50
	}

	shards := partitionBySession(recs, opts.Concurrency)

	type workerStat struct {
		records, batches, rejected int
		latencies                  []time.Duration
		err                        error
	}
	stats := make([]workerStat, opts.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, recs []logging.Record) {
			defer wg.Done()
			st := &stats[w]
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for off := 0; off < len(recs); off += opts.Batch {
				end := off + opts.Batch
				if end > len(recs) {
					end = len(recs)
				}
				batch := recs[off:end]
				retries := 0
				for {
					t0 := time.Now()
					resp, err := c.IngestRecords(batch)
					st.latencies = append(st.latencies, time.Since(t0))
					if qf, ok := err.(ErrQueueFull); ok {
						st.rejected++
						retries++
						if retries > opts.MaxRetries {
							st.err = fmt.Errorf("batch still refused after %d retries: %w", opts.MaxRetries, err)
							return
						}
						retrySleep(retryDelay(qf.RetryAfter, rng))
						continue
					}
					if err != nil {
						st.err = err
						return
					}
					st.records += resp.Accepted
					st.batches++
					break
				}
			}
		}(w, shards[w])
	}
	wg.Wait()

	res := ReplayResult{Duration: time.Since(start)}
	var lat []time.Duration
	for i := range stats {
		if stats[i].err != nil {
			return res, stats[i].err
		}
		res.Records += stats[i].records
		res.Batches += stats[i].batches
		res.Rejected += stats[i].rejected
		lat = append(lat, stats[i].latencies...)
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.P50 = lat[len(lat)/2]
		res.P99 = lat[(len(lat)*99)/100]
	}
	if secs := res.Duration.Seconds(); secs > 0 {
		res.RecPerSec = float64(res.Records) / secs
	}
	return res, nil
}
