package analytics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"intellog/internal/detect"
)

// The read path's contract: RollupPage and Clusters answer exactly what
// a fresh Snapshot would, however observes, reads, horizon sweeps,
// cluster merges and restores interleave — a cached window encoding is
// never served stale.

var readBase = time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)

// readAnomaly builds one anomaly whose shape is drawn from a small
// space (so shapes recur and the MaxShapes cap is reachable), at a
// minute offset from readBase.
func readAnomaly(shape, minute, second, session int) detect.Anomaly {
	kinds := []detect.Kind{detect.MissingCriticalKeys, detect.OrderViolation, detect.MissingGroup}
	a := detect.Anomaly{
		At:      readBase.Add(time.Duration(minute)*time.Minute + time.Duration(second)*time.Second),
		Session: "s" + strconv.Itoa(session),
		Kind:    kinds[shape%len(kinds)],
		Group:   []string{"task", "shuffle", "executor", ""}[shape/3%4],
		Detail:  "detail " + strconv.Itoa(shape*7+session),
	}
	a.MissingKeys = []int{shape % 5, 5 + shape%3}
	return a
}

// pageReference is RollupPage computed the old way, from a Snapshot:
// the windows after since (all for since 0), at most limit (≤ 0: all),
// each encoded by json.Marshal.
func pageReference(t testing.TB, snap *Snapshot, since int64, limit int) (bufs [][]byte, next int64) {
	t.Helper()
	next = since
	for _, b := range snap.Rollup.Buckets {
		start := b.Start.Unix()
		if since != 0 && start <= since {
			continue
		}
		if limit > 0 && len(bufs) >= limit {
			break
		}
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, raw)
		next = start
	}
	return bufs, next
}

// checkPage reads one page and compares every part of it with the
// Snapshot reference.
func checkPage(t testing.TB, e *Engine, since int64, limit int) {
	t.Helper()
	page := e.RollupPage(since, limit)
	snap := e.Snapshot()
	want, next := pageReference(t, snap, since, limit)
	if len(page.Buckets) != len(want) {
		t.Fatalf("since %d limit %d: page has %d windows, snapshot %d", since, limit, len(page.Buckets), len(want))
	}
	for i := range want {
		if !bytes.Equal(page.Buckets[i], want[i]) {
			t.Fatalf("since %d limit %d: window %d is stale\ngot:  %s\nwant: %s", since, limit, i, page.Buckets[i], want[i])
		}
	}
	if page.Next != next || page.Window != snap.Rollup.Window || page.Budget != snap.Rollup.Budget ||
		!reflect.DeepEqual(page.Alerts, snap.Rollup.Alerts) {
		t.Fatalf("since %d limit %d: page head (%s %g %+v next %d) differs from snapshot (%s %g %+v next %d)",
			since, limit, page.Window, page.Budget, page.Alerts, page.Next,
			snap.Rollup.Window, snap.Rollup.Budget, snap.Rollup.Alerts, next)
	}
}

// checkClusters compares Clusters with the Snapshot's cluster product.
func checkClusters(t testing.TB, e *Engine) {
	t.Helper()
	observed, shapes, clusters := e.Clusters()
	snap := e.Snapshot()
	got, _ := json.Marshal([]any{observed, shapes, clusters})
	want, _ := json.Marshal([]any{snap.Observed, snap.Shapes, snap.Clusters})
	if !bytes.Equal(got, want) {
		t.Fatalf("Clusters differs from Snapshot\ngot:  %s\nwant: %s", got, want)
	}
}

// checkAllPages reads the whole rollup, then pages of one and three
// windows from a mid-range cursor.
func checkAllPages(t testing.TB, e *Engine) {
	t.Helper()
	checkPage(t, e, 0, 0)
	snap := e.Snapshot()
	var mid int64
	if n := len(snap.Rollup.Buckets); n > 0 {
		mid = snap.Rollup.Buckets[n/2].Start.Unix()
	}
	for _, limit := range []int{1, 3} {
		checkPage(t, e, 0, limit)
		checkPage(t, e, mid, limit)
	}
}

func restoreJSON(t testing.TB, e *Engine, cfg Config) *Engine {
	t.Helper()
	raw, err := e.StateJSON()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreJSON(cfg, testGraph(), raw)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// bridgeAnomalies are three shapes of one group: a and b share too few
// terms to link, and bridge carries both their key sets, so observing
// it merges their clusters and renames the windows' cluster keys.
func bridgeAnomalies(minute int) (a, b, bridge detect.Anomaly) {
	mk := func(keys ...int) detect.Anomaly {
		return detect.Anomaly{
			At: readBase.Add(time.Duration(minute) * time.Minute), Session: "bridge",
			Kind: detect.MissingCriticalKeys, Group: "task", MissingKeys: keys, Detail: "bridge",
		}
	}
	return mk(11, 12, 13, 14), mk(15, 16, 17, 18), mk(11, 12, 13, 14, 15, 16, 17, 18)
}

// TestRollupPageNeverStale interleaves observes and page reads with the
// three events that make a cached window stale by other routes than a
// write into it: a merge of two clusters, a horizon sweep, and a
// restore from State. After every step every page equals the fresh
// Snapshot's windows.
func TestRollupPageNeverStale(t *testing.T) {
	// The bridge shapes arrive while the table has room; the later
	// random ones overflow it into the "other" catch-all.
	cfg := Config{MaxBuckets: 8, MaxShapes: 18}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(cfg, testGraph())
		step := func(what string, f func()) {
			f()
			t.Run(what, func(t *testing.T) { checkAllPages(t, e) })
		}
		observe := func(n, minutes int) {
			for range n {
				a := readAnomaly(rng.Intn(30), rng.Intn(minutes), rng.Intn(60), rng.Intn(9))
				e.Observe(&a)
			}
		}
		step("fill", func() { observe(10, 6) })
		step("repeat", func() { observe(1, 6) })

		a, b, bridge := bridgeAnomalies(2)
		step("two-clusters", func() {
			e.Observe(&a)
			b.At = b.At.Add(time.Minute)
			e.Observe(&b)
		})
		before := e.Stats().Clusters
		step("merge", func() { e.Observe(&bridge) })
		if after := e.Stats().Clusters; after >= before {
			t.Fatalf("seed %d: the bridge shape merged nothing (%d → %d clusters)", seed, before, after)
		}

		step("overflow", func() { observe(40, 6) })
		if e.Stats().ShapesDropped == 0 {
			t.Fatalf("seed %d: the shape table never overflowed", seed)
		}
		step("restore", func() { e = restoreJSON(t, e, cfg) })
		step("after-restore", func() { observe(5, 6) })
		// Event time jumps past the horizon: the oldest windows sweep
		// away, and anomalies behind the horizon are refused.
		dropped := e.Stats().BucketsDropped
		step("sweep", func() { observe(10, 14) })
		if e.Stats().BucketsDropped == dropped {
			t.Fatalf("seed %d: the horizon swept no window", seed)
		}
		step("late", func() {
			old := readAnomaly(1, 0, 0, 1)
			e.Observe(&old)
		})
		step("mixed", func() {
			for range 20 {
				observe(1, 16)
				checkPage(t, e, 0, 1+rng.Intn(4))
			}
		})
	}
}

// TestRollupPageEncodesOnlyChanges counts window encodings: a repeated
// read encodes nothing, one anomaly re-encodes exactly its own window,
// and a new shape (a cluster-memo rebuild) re-encodes every window on
// the page.
func TestRollupPageEncodesOnlyChanges(t *testing.T) {
	e := NewEngine(Config{}, testGraph())
	e.ObserveBatch(testAnomalies())
	windows := len(e.Snapshot().Rollup.Buckets)
	if windows < 3 {
		t.Fatalf("fixture has %d windows, want several", windows)
	}
	read := func() uint64 {
		before := e.Encodes()
		checkPage(t, e, 0, 0)
		return e.Encodes() - before
	}
	if n := read(); n != uint64(windows) {
		t.Fatalf("first read encoded %d windows, want all %d", n, windows)
	}
	if n := read(); n != 0 {
		t.Fatalf("unchanged read encoded %d windows, want 0", n)
	}
	repeat := testAnomalies()[0] // an existing shape in an existing window
	e.Observe(&repeat)
	if n := read(); n != 1 {
		t.Fatalf("read after one anomaly encoded %d windows, want 1", n)
	}
	fresh := repeat
	fresh.MissingKeys = []int{99}
	e.Observe(&fresh)
	if n := read(); n != uint64(windows) {
		t.Fatalf("read after a new shape encoded %d windows, want all %d", n, windows)
	}
	// A page encodes only what it returns.
	e.Observe(&fresh)
	before := e.Encodes()
	e.RollupPage(0, 1)
	if n := e.Encodes() - before; n > 1 {
		t.Fatalf("a one-window page encoded %d windows", n)
	}
}

// TestRollupPageConcurrentReads: pages hand out the cached encodings
// after the lock is released, so readers use them while writers clear
// and rebuild the cache. Run under -race.
func TestRollupPageConcurrentReads(t *testing.T) {
	e := NewEngine(Config{MaxBuckets: 6}, testGraph())
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				a := readAnomaly((i*7+w)%25, i/20, i%60, i%5)
				e.Observe(&a)
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				for _, b := range e.RollupPage(0, 0).Buckets {
					if !json.Valid(b) {
						t.Errorf("invalid window encoding %q", b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkAllPages(t, e)
}

// sortedScanAlerts is the burn-rate evaluation as it stood before the
// unsorted scan: sort every retained start, then filter the range.
func sortedScanAlerts(e *Engine) []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	var starts []int64
	for s := range e.buckets {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	win := e.winSec()
	eval := func(name string, windows int, threshold float64) Alert {
		var total uint64
		if e.anyAt {
			lo := e.maxStart - int64(windows-1)*win
			for _, s := range starts {
				if s >= lo && s <= e.maxStart {
					total += e.buckets[s].total
				}
			}
		}
		burn := float64(total) / (float64(windows) * e.cfg.Budget)
		return Alert{Name: name, Windows: windows, BurnRate: burn, Threshold: threshold, Firing: burn >= threshold}
	}
	return []Alert{
		eval("fast-burn", FastBurnWindows, FastBurnThreshold),
		eval("slow-burn", SlowBurnWindows, SlowBurnThreshold),
	}
}

// TestAlertsMatchSortedScan: the unsorted alert sums equal the sorted
// scan on random engines — sparse ones with missing windows among the
// newest six, and restored ones whose window width changed, so their
// starts sit off the new grid.
func TestAlertsMatchSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := range 200 {
		cfg := Config{
			Window:     time.Duration(1+rng.Intn(3)) * time.Minute,
			Budget:     float64(1 + rng.Intn(5)),
			MaxBuckets: 2 + rng.Intn(10),
		}
		e := NewEngine(cfg, nil)
		for range rng.Intn(60) {
			// Sparse minutes leave gaps among the newest windows.
			a := readAnomaly(rng.Intn(10), rng.Intn(3)*rng.Intn(8), rng.Intn(60), rng.Intn(4))
			e.Observe(&a)
		}
		if i%3 == 0 {
			cfg.Window = time.Duration(1+rng.Intn(5)) * 30 * time.Second
			e = restoreJSON(t, e, cfg)
			if i%2 == 0 {
				a := readAnomaly(rng.Intn(10), rng.Intn(20), rng.Intn(60), 0)
				e.Observe(&a)
			}
		}
		e.mu.Lock()
		got := e.alertsLocked()
		e.mu.Unlock()
		if want := sortedScanAlerts(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %d: alerts %+v, sorted scan %+v", i, got, want)
		}
	}
}

// FuzzAnalyticsReads drives an engine with fuzz bytes — observes, page
// reads, cluster reads and restores — and checks every read against the
// Snapshot reference.
func FuzzAnalyticsReads(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 9, 1, 2, 0, 0})
	f.Add([]byte{0, 7, 3, 1, 0, 8, 30, 2, 1, 4, 2, 3, 0, 2, 2, 4, 1, 1})
	f.Add([]byte{0, 20, 0, 0, 0, 21, 40, 1, 5, 0, 1, 3, 0, 22, 1, 2, 2, 2})
	cfg := Config{MaxBuckets: 6, MaxShapes: 10, SessionCap: 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(cfg, testGraph())
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			switch next() % 5 {
			case 0, 1:
				shape, at, session := next(), next(), next()
				a := readAnomaly(shape%40, at%24, at%60, session%6)
				e.Observe(&a)
			case 2:
				snap := e.Snapshot()
				var since int64
				if n := len(snap.Rollup.Buckets); n > 0 {
					if i := next() % (n + 1); i < n {
						since = snap.Rollup.Buckets[i].Start.Unix()
					}
				}
				checkPage(t, e, since, next()%4)
			case 3:
				checkClusters(t, e)
			case 4:
				e = restoreJSON(t, e, cfg)
			}
		}
		checkAllPages(t, e)
	})
}
