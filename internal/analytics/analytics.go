// Package analytics is intellogd's aggregation layer over the anomaly
// log: it turns the raw per-tenant finding stream into operator-grade
// answers. Three products, one engine:
//
//   - Near-duplicate clusters. Every anomaly reduces to its "shape" —
//     the sorted multiset of template terms from detect.ClusterTerms —
//     and shapes are linked into clusters by cosine similarity over
//     IDF-weighted term vectors (reusing the LogCluster baseline's
//     vector machinery). Ten thousand repeats of one fault become one
//     cluster with a count.
//
//   - Root-cause localization. For each cluster (and on demand for a
//     single anomaly) the engine walks the HW-graph backward from the
//     erroneous group through parent and BEFORE edges to the earliest
//     deviating group in the same session, and attaches the forward
//     causal path as the cluster's explanation.
//
//   - Time-bucketed rollups with SLO burn-rate alerts: per-window
//     anomaly counts split by kind and cluster, plus fast/slow burn
//     alerts against a configured anomalies-per-window budget.
//
// The engine's one structural guarantee is order independence: its
// observable state (Snapshot) is a pure function of the multiset of
// anomalies observed, never of their arrival order. The serving layer's
// batch, streaming, and crash-resume paths emit the same findings in
// different orders, and the conformance oracle demands byte-identical
// results from all of them — so clustering is connected components over
// content-keyed shapes (recomputed lazily, not greedy online
// assignment), every aggregate is a count, min, max, or saturating
// distinct-count, and rollup retention is an event-time horizon rather
// than an eviction queue. The documented exception: once a bounded
// table (shapes, tracked sessions) overflows its cap, which entries
// survive becomes arrival-dependent; caps are sized so that regime is
// an overload mode, not normal operation.
package analytics

import (
	"fmt"
	"math"
	"time"
)

// Config bounds and tunes one tenant's analytics engine. Zero values
// select the defaults noted on each field.
type Config struct {
	// Threshold is the cosine-similarity cut for linking two anomaly
	// shapes into one cluster (0 ⇒ 0.60).
	Threshold float64
	// Window is the rollup bucket width (0 ⇒ 1m).
	Window time.Duration
	// Budget is the SLO: tolerated anomalies per window. Burn rate is
	// observed rate divided by this (0 ⇒ 10).
	Budget float64
	// MaxShapes caps distinct anomaly shapes (0 ⇒ 4096). Anomalies whose
	// shape would exceed the cap still count in rollup totals, under a
	// catch-all "other" cluster.
	MaxShapes int
	// MaxBuckets caps retained rollup windows (0 ⇒ 4096): buckets whose
	// start falls more than MaxBuckets windows behind the newest observed
	// event time are dropped.
	MaxBuckets int
	// MaxSessions caps per-session deviation tracking (0 ⇒ 16384).
	MaxSessions int
	// SessionCap saturates distinct-session counting per shape and per
	// bucket (0 ⇒ 4096): counts are exact up to the cap, then freeze.
	SessionCap int
}

const (
	defaultThreshold   = 0.60
	defaultWindow      = time.Minute
	defaultBudget      = 10
	defaultMaxShapes   = 4096
	defaultMaxBuckets  = 4096
	defaultMaxSessions = 16384
	defaultSessionCap  = 4096
)

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = defaultThreshold
	}
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
	if c.Budget <= 0 {
		c.Budget = defaultBudget
	}
	if c.MaxShapes <= 0 {
		c.MaxShapes = defaultMaxShapes
	}
	if c.MaxBuckets <= 0 {
		c.MaxBuckets = defaultMaxBuckets
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = defaultMaxSessions
	}
	if c.SessionCap <= 0 {
		c.SessionCap = defaultSessionCap
	}
	return c
}

// Validate rejects the settings no default stands in for. A NaN
// passes the ≤ 0 default checks, and neither a non-finite threshold
// nor a non-finite budget means anything. A budget so small that a
// window total divided by it overflows would make burn rates infinite,
// which no JSON response can carry: every uint64 total over a finite
// quotient keeps every burn rate finite.
func (c Config) Validate() error {
	if math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("analytics: cluster threshold %v is not finite", c.Threshold)
	}
	if math.IsNaN(c.Budget) || math.IsInf(c.Budget, 0) {
		return fmt.Errorf("analytics: SLO budget %v is not finite", c.Budget)
	}
	if c.Budget > 0 && math.IsInf(math.MaxUint64/c.Budget, 0) {
		return fmt.Errorf("analytics: SLO budget %v is too small: burn rates would overflow", c.Budget)
	}
	return nil
}

// Burn-rate alert policy, after the common two-window SRE shape: a
// short window catching sharp spikes and a long window catching slow
// leaks. Windows are in rollup buckets.
const (
	FastBurnWindows   = 1
	FastBurnThreshold = 14.0
	SlowBurnWindows   = 6
	SlowBurnThreshold = 6.0
)
