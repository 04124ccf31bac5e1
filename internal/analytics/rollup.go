package analytics

import (
	"encoding/json"
	"slices"
	"sort"
	"strconv"
	"time"

	"intellog/internal/detect"
)

// observeBucket rolls the anomaly into its event-time window. Retention
// is a horizon, not an eviction queue: buckets more than MaxBuckets
// windows behind the newest observed window are dropped and never
// recreated. That keeps the retained bucket set a pure function of the
// anomaly multiset — the set of windows within the final horizon, each
// with exact counts — regardless of arrival order (an early arrival
// gets bucketed and later swept; a late arrival is refused at the
// horizon; either way the final state is identical).
func (e *Engine) observeBucket(a *detect.Anomaly, sp *shape, at int64) {
	win := e.winSec()
	sec := at / int64(time.Second)
	if at < 0 && at%int64(time.Second) != 0 {
		sec-- // floor, not truncate, for pre-epoch times
	}
	start := sec - mod(sec, win)

	if !e.anyAt || start > e.maxStart {
		e.maxStart = start
		e.anyAt = true
		// Sweep on every horizon advance, not just when full: a bucket
		// below the horizon lingering until the table fills would make
		// the retained set depend on arrival order.
		e.sweepBuckets()
	}
	if start <= e.horizon() {
		e.bucketsDropped++
		return
	}

	b := e.buckets[start]
	if b == nil {
		b = &bucket{
			start:    start,
			kinds:    map[string]uint64{},
			shapes:   map[int]uint64{},
			sessions: map[string]struct{}{},
		}
		e.buckets[start] = b
	}
	b.enc = nil
	b.total++
	b.kinds[a.Kind.String()]++
	if sp != nil {
		b.shapes[sp.id]++
	} else {
		b.shapes[-1]++
	}
	if !b.frozen {
		if _, ok := b.sessions[a.Session]; !ok {
			b.sessions[a.Session] = struct{}{}
			b.sessionCount++
			if b.sessionCount >= e.cfg.SessionCap {
				b.sessions, b.frozen = nil, true
			}
		}
	}
}

// horizon is the oldest retained window start (exclusive).
func (e *Engine) horizon() int64 {
	if !e.anyAt {
		return -1 << 62
	}
	return e.maxStart - int64(e.cfg.MaxBuckets)*e.winSec()
}

func (e *Engine) sweepBuckets() {
	h := e.horizon()
	for start, b := range e.buckets {
		if start <= h {
			e.bucketsDropped += b.total
			delete(e.buckets, start)
		}
	}
}

// winSec is the rollup window width in whole seconds (at least 1).
func (e *Engine) winSec() int64 {
	return max(int64(e.cfg.Window/time.Second), 1)
}

func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Bucket is one rollup window in a snapshot.
type Bucket struct {
	Start time.Time         `json:"start"`
	Total uint64            `json:"total"`
	Kinds map[string]uint64 `json:"kinds,omitempty"`
	// Clusters maps cluster ID (decimal string) → anomaly count in this
	// window; the key "other" collects anomalies whose shape was over
	// the MaxShapes cap.
	Clusters map[string]uint64 `json:"clusters,omitempty"`
	// Sessions is the distinct sessions active in the window, exact up
	// to SessionCap then saturated.
	Sessions int `json:"sessions"`
}

// Alert is one burn-rate evaluation against the SLO budget.
type Alert struct {
	Name      string  `json:"name"`
	Windows   int     `json:"windows"`
	BurnRate  float64 `json:"burnRate"`
	Threshold float64 `json:"threshold"`
	Firing    bool    `json:"firing"`
}

// Rollup is the time-bucketed view in a snapshot.
type Rollup struct {
	Window  string   `json:"window"`
	Budget  float64  `json:"budget"`
	Buckets []Bucket `json:"buckets"`
	Alerts  []Alert  `json:"alerts"`
}

// sortedStartsLocked lists the retained window starts, ascending.
func (e *Engine) sortedStartsLocked() []int64 {
	starts := make([]int64, 0, len(e.buckets))
	for s := range e.buckets {
		starts = append(starts, s)
	}
	slices.Sort(starts)
	return starts
}

// bucketView renders one window; the cluster memo must be current.
func (e *Engine) bucketView(b *bucket) Bucket {
	bk := Bucket{
		Start:    time.Unix(b.start, 0).UTC(),
		Total:    b.total,
		Sessions: b.sessionCount,
	}
	if len(b.kinds) > 0 {
		bk.Kinds = make(map[string]uint64, len(b.kinds))
		for k, n := range b.kinds {
			bk.Kinds[k] = n
		}
	}
	if len(b.shapes) > 0 {
		bk.Clusters = make(map[string]uint64)
		for id, n := range b.shapes {
			bk.Clusters[e.clusterKeyLocked(id)] += n
		}
	}
	return bk
}

// rollupLocked builds the rollup view. Alerts evaluate at event time —
// relative to the newest observed window, not the wall clock — so the
// view is reproducible and testable.
func (e *Engine) rollupLocked() Rollup {
	e.componentsLocked()
	out := Rollup{Window: e.cfg.Window.String(), Budget: e.cfg.Budget}
	for _, s := range e.sortedStartsLocked() {
		out.Buckets = append(out.Buckets, e.bucketView(e.buckets[s]))
	}
	out.Alerts = e.alertsLocked()
	return out
}

// RollupPage is one page of the rollup product, its windows already
// encoded: Buckets[i] is json.Marshal of the window's Bucket, in
// ascending start order. The encodings are shared with the engine's
// cache and must not be modified.
type RollupPage struct {
	Window  string
	Budget  float64
	Buckets [][]byte
	Alerts  []Alert
	// Next is the newest returned window's start (unix seconds), or the
	// since cursor when the page is empty.
	Next int64
}

// RollupPage returns up to limit windows (limit ≤ 0: all) starting
// after since (unix seconds; 0 starts from the oldest window), plus the
// alerts. Each window is encoded once and reused until observeBucket
// writes into it or the cluster memo is rebuilt, since a rebuild may
// rename the clusters its counts are keyed by.
func (e *Engine) RollupPage(since int64, limit int) RollupPage {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.componentsLocked()
	starts := e.sortedStartsLocked()
	if since != 0 {
		starts = starts[sort.Search(len(starts), func(i int) bool { return starts[i] > since }):]
	}
	if limit > 0 && len(starts) > limit {
		starts = starts[:limit]
	}
	page := RollupPage{
		Window:  e.cfg.Window.String(),
		Budget:  e.cfg.Budget,
		Buckets: make([][]byte, len(starts)),
		Alerts:  e.alertsLocked(),
		Next:    since,
	}
	for i, s := range starts {
		b := e.buckets[s]
		if b.enc == nil || b.encGen != e.gen {
			b.enc, _ = json.Marshal(e.bucketView(b)) // a Bucket always marshals
			b.encGen = e.gen
			e.encodes++
		}
		page.Buckets[i] = b.enc
		page.Next = s
	}
	return page
}

// alertsLocked evaluates the two-window burn-rate policy over the
// newest windows. The totals are integers, so one unsorted scan of the
// retained windows sums them exactly.
func (e *Engine) alertsLocked() []Alert {
	win := e.winSec()
	eval := func(name string, windows int, threshold float64) Alert {
		var total uint64
		if e.anyAt {
			lo := e.maxStart - int64(windows-1)*win
			for s, b := range e.buckets {
				if s >= lo && s <= e.maxStart {
					total += b.total
				}
			}
		}
		burn := float64(total) / (float64(windows) * e.cfg.Budget)
		return Alert{
			Name: name, Windows: windows,
			BurnRate: burn, Threshold: threshold,
			Firing: burn >= threshold,
		}
	}
	return []Alert{
		eval("fast-burn", FastBurnWindows, FastBurnThreshold),
		eval("slow-burn", SlowBurnWindows, SlowBurnThreshold),
	}
}

// clusterKeyFor renders a cluster ID for bucket maps.
func clusterKey(id uint64) string { return strconv.FormatUint(id, 10) }
