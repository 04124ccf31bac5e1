package analytics

import (
	"sort"
	"strings"
	"time"

	"intellog/internal/baselines/logcluster"
	"intellog/internal/detect"
	"intellog/internal/hwgraph"
)

// Cluster is one near-duplicate anomaly cluster in a snapshot.
type Cluster struct {
	// ID is a stable content hash of the label shape — the pagination
	// cursor. It never depends on arrival order.
	ID uint64 `json:"id"`
	// Label is the representative shape's terms (space-joined): the
	// lexicographically smallest member shape.
	Label string `json:"label"`
	// Count is total member anomalies; Shapes is distinct templates.
	Count  uint64            `json:"count"`
	Shapes int               `json:"shapes"`
	Kinds  map[string]uint64 `json:"kinds,omitempty"`
	// Groups are the distinct HW-graph groups implicated, sorted.
	Groups []string `json:"groups,omitempty"`
	// Sessions sums the member shapes' distinct-session counts (an
	// upper bound when sessions span shapes; exact below SessionCap for
	// single-shape clusters).
	Sessions int       `json:"sessions"`
	FirstAt  time.Time `json:"firstAt"`
	// Sample is a representative member detail.
	Sample string `json:"sample,omitempty"`
	// Explanation localizes the cluster's root cause on the HW-graph.
	Explanation *Explanation `json:"explanation,omitempty"`
}

// Explanation is a root-cause localization: the forward causal path
// from the earliest deviating group to the erroneous one.
type Explanation struct {
	// Session is the member session the deviation evidence came from.
	Session string `json:"session,omitempty"`
	// RootCause is the earliest deviating group on the backward walk.
	RootCause string `json:"rootCause"`
	// Path walks forward from RootCause to the anomalous group.
	Path []hwgraph.WalkStep `json:"path"`
	// Deviating lists every group that deviated in the session, sorted.
	Deviating []string `json:"deviating,omitempty"`
}

// Snapshot is the engine's full observable state, canonically ordered:
// byte-identical JSON for the same anomaly multiset regardless of
// arrival order. Overload counters (drops, evictions) are deliberately
// excluded — they are arrival-dependent; see Stats.
type Snapshot struct {
	Observed uint64    `json:"observed"`
	Shapes   int       `json:"shapes"`
	Clusters []Cluster `json:"clusters"`
	Rollup   Rollup    `json:"rollup"`
}

// fnv64a of the shape key: the cluster's stable identity.
func clusterID(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// componentsLocked brings the cluster memo up to date: the connected
// components of the shape graph, where shapes are nodes and an edge
// links two shapes whose IDF-weighted term vectors reach the cosine
// threshold. Components are a pure function of the edge set, so the
// clustering is independent of both shape-arrival order and union order
// — unlike greedy centroid assignment, which the LogCluster baseline can
// afford but the byte-identity guarantee cannot. Each rebuild also
// records every shape's label and cluster key, and advances gen.
func (e *Engine) componentsLocked() {
	if !e.compDirty && e.label != nil {
		return
	}
	n := len(e.shapeList)
	idf := make([]float64, len(e.df))
	for t, d := range e.df {
		if d > 0 {
			idf[t] = logcluster.IDF(n, d)
		}
	}
	vecs := make([]logcluster.Vector, n)
	for i, sp := range e.shapeList {
		v := make(logcluster.Vector, len(sp.vec))
		for t, c := range sp.vec {
			v[t] = logcluster.TFWeight(c) * idf[t]
		}
		vecs[i] = v
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if logcluster.Cosine(vecs[i], vecs[j]) >= e.cfg.Threshold {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	comp := make([]int, n)
	rootLabel := make([]int, n) // root → its smallest-key member
	for i := range comp {
		comp[i] = find(i)
		rootLabel[i] = -1
	}
	for i, r := range comp {
		if l := rootLabel[r]; l < 0 || e.shapeList[i].key < e.shapeList[l].key {
			rootLabel[r] = i
		}
	}
	rootKey := make([]string, n)
	label := make([]int, n)
	keys := make([]string, n)
	e.nclusters = 0
	for i, r := range comp {
		if rootKey[r] == "" {
			rootKey[r] = clusterKey(clusterID(e.shapeList[rootLabel[r]].key))
			e.nclusters++
		}
		label[i], keys[i] = rootLabel[r], rootKey[r]
	}
	e.label, e.keys, e.compDirty = label, keys, false
	e.gen++
}

// clusterKeyLocked names shape id's cluster in a rollup window: its
// memoized cluster key, or "other" for the over-cap catch-all (-1).
// The memo must be current.
func (e *Engine) clusterKeyLocked(id int) string {
	if id >= 0 && id < len(e.keys) {
		return e.keys[id]
	}
	return "other"
}

// Snapshot renders the canonical view: clusters sorted by ID, buckets
// by start.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Snapshot{
		Observed: e.observed,
		Shapes:   len(e.shapeList),
		Clusters: e.clustersLocked(),
		Rollup:   e.rollupLocked(),
	}
}

// Clusters renders the cluster product alone — the Snapshot's Observed,
// Shapes and Clusters — without building the rollup.
func (e *Engine) Clusters() (observed uint64, shapes int, clusters []Cluster) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observed, len(e.shapeList), e.clustersLocked()
}

// clustersLocked builds every cluster, sorted by ID.
func (e *Engine) clustersLocked() []Cluster {
	e.componentsLocked()
	members := map[int][]*shape{} // label shape → the component's shapes
	for i, sp := range e.shapeList {
		members[e.label[i]] = append(members[e.label[i]], sp)
	}
	var out []Cluster
	for _, ms := range members {
		out = append(out, e.buildCluster(ms))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// buildCluster aggregates one component's member shapes. Every field is
// a count, min, or sorted set over member content — order-independent.
// The cluster memo must be current.
func (e *Engine) buildCluster(ms []*shape) Cluster {
	label := e.shapeList[e.label[ms[0].id]]
	c := Cluster{
		ID:     clusterID(label.key),
		Label:  strings.Join(label.terms, " "),
		Shapes: len(ms),
		Kinds:  map[string]uint64{},
	}
	groups := map[string]bool{}
	var firstAt int64
	for i, sp := range ms {
		c.Count += sp.count
		c.Kinds[sp.kind] += sp.count
		c.Sessions += sp.sessionCount
		if sp.group != "" {
			groups[sp.group] = true
		}
		if i == 0 || sp.firstAt < firstAt {
			firstAt = sp.firstAt
		}
		if c.Sample == "" || (sp.sample != "" && sp.sample < c.Sample) {
			c.Sample = sp.sample
		}
	}
	c.FirstAt = time.Unix(0, firstAt).UTC()
	for g := range groups {
		c.Groups = append(c.Groups, g)
	}
	sort.Strings(c.Groups)
	c.Explanation = e.explainLocked(label.group, label.sampleSes, c.Groups)
	return c
}

// explainLocked localizes group's root cause using the session's
// deviation evidence (falling back to the cluster's own group set if
// the session is no longer tracked). Returns nil for groupless
// anomalies (e.g. overflow findings).
func (e *Engine) explainLocked(group, session string, fallback []string) *Explanation {
	if group == "" {
		return nil
	}
	deviating := map[string]bool{group: true}
	usedSession := ""
	if si := e.sessions[session]; si != nil {
		usedSession = session
		for g := range si.groups {
			deviating[g] = true
		}
	} else {
		for _, g := range fallback {
			deviating[g] = true
		}
	}
	expl := &Explanation{Session: usedSession}
	if e.graph != nil {
		expl.Path = e.graph.DeviationWalk(group, func(g string) bool { return deviating[g] })
	} else {
		expl.Path = []hwgraph.WalkStep{{Group: group, Deviating: true}}
	}
	expl.RootCause = expl.Path[0].Group
	for g := range deviating {
		expl.Deviating = append(expl.Deviating, g)
	}
	sort.Strings(expl.Deviating)
	e.localizations++
	return expl
}

// AnomalyExplanation answers /v1/anomalies/{seq}/explain: the anomaly's
// cluster identity plus its localization.
type AnomalyExplanation struct {
	ClusterID    uint64       `json:"clusterId,omitempty"`
	ClusterLabel string       `json:"clusterLabel,omitempty"`
	Explanation  *Explanation `json:"explanation,omitempty"`
}

// Explain localizes one anomaly against its own session's deviation
// evidence and names the cluster it belongs to.
func (e *Engine) Explain(a *detect.Anomaly) *AnomalyExplanation {
	e.mu.Lock()
	defer e.mu.Unlock()

	out := &AnomalyExplanation{}
	terms := a.ClusterTerms()
	if sp := e.shapes[strings.Join(terms, "\x1f")]; sp != nil {
		e.componentsLocked()
		label := e.shapeList[e.label[sp.id]]
		out.ClusterID = clusterID(label.key)
		out.ClusterLabel = strings.Join(label.terms, " ")
	}
	out.Explanation = e.explainLocked(a.Group, a.Session, nil)
	return out
}

// Stats is the metrics view: cheap gauges plus the arrival-dependent
// overload counters excluded from Snapshot.
type Stats struct {
	Observed        uint64
	Shapes          int
	Clusters        int
	Buckets         int // retained rollup windows
	TrackedSessions int
	Localizations   uint64
	AlertsFiring    int
	ShapesDropped   uint64
	BucketsDropped  uint64
	SessionsEvicted uint64
}

// Stats reports current engine statistics for /metrics.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.componentsLocked()
	firing := 0
	for _, a := range e.alertsLocked() {
		if a.Firing {
			firing++
		}
	}
	return Stats{
		Observed:        e.observed,
		Shapes:          len(e.shapeList),
		Clusters:        e.nclusters,
		Buckets:         len(e.buckets),
		TrackedSessions: len(e.sessions),
		Localizations:   e.localizations,
		AlertsFiring:    firing,
		ShapesDropped:   e.shapesDropped,
		BucketsDropped:  e.bucketsDropped,
		SessionsEvicted: e.sessionsEvicted,
	}
}
