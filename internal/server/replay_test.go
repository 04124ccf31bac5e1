package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/logging"
)

// TestLaggedSplitMatchesRouting: the oracle's lagged legs split a corpus
// exactly as the daemon routes sessions across two ingest workers.
func TestLaggedSplitMatchesRouting(t *testing.T) {
	recs := CorpusFor(conformance.DefaultMatrix()[1])
	if !reflect.DeepEqual(conformance.LaggedSplit(recs, 2), partitionBySession(recs, 2)) {
		t.Fatal("conformance.LaggedSplit disagrees with the daemon's session routing")
	}
}

func TestRetryDelayJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const hint = time.Second
	lo, hi := 8*hint/10, 12*hint/10
	seen := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := retryDelay(hint, rng)
		if d < lo || d > hi {
			t.Fatalf("retryDelay(%v) = %v outside [%v, %v]", hint, d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 100 {
		t.Errorf("jitter produced only %d distinct delays in 1000 draws", len(seen))
	}
	if d := retryDelay(0, rng); d != minRetryDelay {
		t.Errorf("retryDelay(0) = %v, want the %v floor (no hint must still back off)", d, minRetryDelay)
	}
}

// TestRetryDelayFloor pins the busy-loop fix: no combination of a small
// hint and unlucky jitter may produce a zero (or near-zero) sleep — a
// refused worker hammering a saturated server with back-to-back
// retries is the failure mode the floor exists to prevent.
func TestRetryDelayFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, hint := range []time.Duration{
		-time.Second, 0, time.Nanosecond, time.Microsecond, time.Millisecond, minRetryDelay,
	} {
		for i := 0; i < 200; i++ {
			if d := retryDelay(hint, rng); d < minRetryDelay {
				t.Fatalf("retryDelay(%v) = %v, below the %v floor", hint, d, minRetryDelay)
			}
		}
	}
	// Large hints must still jitter around the hint, not the floor.
	if d := retryDelay(time.Second, rng); d < 800*time.Millisecond {
		t.Fatalf("retryDelay(1s) = %v, jitter band broken", d)
	}
}

// TestReplayRetryJitter drives Replay against a stub ingest endpoint
// whose admission is flaky — the first several batches are refused with
// a Retry-After hint — and asserts the retries (a) eventually deliver
// every record, and (b) back off by the jittered hint, not the bare one:
// every recorded sleep sits in the ±20% band and they are not all equal.
func TestReplayRetryJitter(t *testing.T) {
	const refusals = 8
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ingest" {
			http.NotFound(w, r)
			return
		}
		if attempts.Add(1) <= refusals {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		n := 0
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				n++
			}
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: n})
	}))
	defer hs.Close()

	var mu sync.Mutex
	var slept []time.Duration
	orig := retrySleep
	retrySleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	defer func() { retrySleep = orig }()

	var recs []logging.Record
	for i := 0; i < 120; i++ {
		recs = append(recs, logging.Record{
			Message:   fmt.Sprintf("record %d", i),
			SessionID: fmt.Sprintf("s%d", i%6),
			Framework: logging.Spark,
		})
	}
	c := &Client{Base: hs.URL, Tenant: "t"}
	res, err := c.Replay(recs, ReplayOptions{Batch: 16, Concurrency: 3, MaxRetries: 20})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Records != len(recs) {
		t.Errorf("accepted %d records, want %d", res.Records, len(recs))
	}
	if res.Rejected != refusals {
		t.Errorf("rejected = %d, want %d", res.Rejected, refusals)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(slept) != refusals {
		t.Fatalf("recorded %d backoff sleeps, want %d", len(slept), refusals)
	}
	lo, hi := 800*time.Millisecond, 1200*time.Millisecond
	distinct := map[time.Duration]bool{}
	for _, d := range slept {
		if d < lo || d > hi {
			t.Errorf("backoff %v outside jitter band [%v, %v]", d, lo, hi)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d backoffs identical (%v): jitter not applied", len(slept), slept[0])
	}
}
