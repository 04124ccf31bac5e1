package analytics

import (
	"strings"
	"sync"

	"intellog/internal/detect"
	"intellog/internal/hwgraph"
)

// Engine is one tenant's analytics state: the shape table, rollup
// buckets, and per-session deviation tracker, plus the memoized
// clustering over the shapes. All methods are safe for concurrent use.
type Engine struct {
	mu    sync.Mutex
	cfg   Config
	graph *hwgraph.Graph

	// Term interner: shape vectors index into this space, and df counts
	// the shapes (documents) containing each term — the IDF corpus.
	terms     map[string]int
	termNames []string
	df        []int

	shapes    map[string]*shape // shape key → shape
	shapeList []*shape          // by internal id (arrival order; never exported)

	buckets  map[int64]*bucket // window start (unix sec) → bucket
	maxStart int64             // newest window start observed (retention horizon anchor)
	anyAt    bool

	sessions map[string]*sessionInfo

	observed      uint64
	localizations uint64

	shapesDropped   uint64
	bucketsDropped  uint64
	sessionsEvicted uint64

	// The cluster memo, rebuilt by componentsLocked when a shape is
	// added: label maps shape index → its component's label shape (the
	// smallest member key), and keys → the label's cluster ID as a
	// rollup map key. gen counts rebuilds; a window encoding made under
	// an older gen may name stale clusters.
	label     []int
	keys      []string
	nclusters int
	gen       uint64
	compDirty bool

	encodes uint64 // window encodings made (read by tests)
}

// shape is one distinct anomaly template: the unit of clustering. All
// aggregates are order-independent (counts, mins, saturating distinct
// sets) so the shape is a pure function of its member multiset.
type shape struct {
	id        int
	key       string   // terms joined with \x1f — the identity
	terms     []string // sorted
	vec       map[int]int
	count     uint64
	kind      string
	group     string
	signature string
	sample    string // lexicographically smallest member Detail
	sampleSes string // lexicographically smallest member session ID
	firstAt   int64  // earliest member event time (unix ns)

	sessions     map[string]struct{} // nil once frozen at SessionCap
	sessionCount int
	frozen       bool
}

// bucket is one rollup window.
type bucket struct {
	start  int64 // unix seconds, window-floored
	total  uint64
	kinds  map[string]uint64
	shapes map[int]uint64 // shape id (-1 = over-cap catch-all) → count

	sessions     map[string]struct{}
	sessionCount int
	frozen       bool

	// enc caches json.Marshal(bucketView) as of cluster-memo generation
	// encGen; observeBucket clears it when it writes into the window.
	enc    []byte
	encGen uint64
}

// sessionInfo tracks which groups deviated in one session — the
// evidence set the deviation walk localizes against.
type sessionInfo struct {
	lastAt int64
	count  uint64
	groups map[string]int64 // group → earliest deviation event time (unix ns)
}

// NewEngine builds an empty engine. graph may be nil (explanations
// degrade to single-step paths).
func NewEngine(cfg Config, graph *hwgraph.Graph) *Engine {
	return &Engine{
		cfg:      cfg.withDefaults(),
		graph:    graph,
		terms:    map[string]int{},
		shapes:   map[string]*shape{},
		buckets:  map[int64]*bucket{},
		sessions: map[string]*sessionInfo{},
	}
}

// Observe folds one anomaly into the engine.
func (e *Engine) Observe(a *detect.Anomaly) {
	e.mu.Lock()
	e.observe(a)
	e.mu.Unlock()
}

// ObserveBatch folds a batch of anomalies under one lock acquisition.
func (e *Engine) ObserveBatch(as []detect.Anomaly) {
	if len(as) == 0 {
		return
	}
	e.mu.Lock()
	for i := range as {
		e.observe(&as[i])
	}
	e.mu.Unlock()
}

func (e *Engine) observe(a *detect.Anomaly) {
	e.observed++
	at := a.At.UnixNano()

	sp := e.shapeFor(a)
	if sp != nil {
		sp.count++
		if sp.count == 1 || at < sp.firstAt {
			sp.firstAt = at
		}
		if sp.sample == "" || (a.Detail != "" && a.Detail < sp.sample) {
			sp.sample = a.Detail
		}
		if sp.sampleSes == "" || a.Session < sp.sampleSes {
			sp.sampleSes = a.Session
		}
		if !sp.frozen {
			if _, ok := sp.sessions[a.Session]; !ok {
				sp.sessions[a.Session] = struct{}{}
				sp.sessionCount++
				if sp.sessionCount >= e.cfg.SessionCap {
					sp.sessions, sp.frozen = nil, true
				}
			}
		}
	}

	e.observeBucket(a, sp, at)
	e.observeSession(a, at)
}

// shapeFor interns the anomaly's shape, creating it if the table has
// room. Returns nil past MaxShapes for unseen shapes (the anomaly still
// rolls up under the catch-all).
func (e *Engine) shapeFor(a *detect.Anomaly) *shape {
	terms := a.ClusterTerms()
	key := strings.Join(terms, "\x1f")
	if sp := e.shapes[key]; sp != nil {
		return sp
	}
	if len(e.shapeList) >= e.cfg.MaxShapes {
		e.shapesDropped++
		return nil
	}
	sp := &shape{
		id:        len(e.shapeList),
		key:       key,
		terms:     terms,
		vec:       map[int]int{},
		kind:      a.Kind.String(),
		group:     a.Group,
		signature: a.Signature,
		sessions:  map[string]struct{}{},
	}
	for _, t := range terms {
		id, ok := e.terms[t]
		if !ok {
			id = len(e.termNames)
			e.terms[t] = id
			e.termNames = append(e.termNames, t)
			e.df = append(e.df, 0)
		}
		if sp.vec[id] == 0 {
			e.df[id]++
		}
		sp.vec[id]++
	}
	e.shapes[key] = sp
	e.shapeList = append(e.shapeList, sp)
	e.compDirty = true
	return sp
}

func (e *Engine) observeSession(a *detect.Anomaly, at int64) {
	si := e.sessions[a.Session]
	if si == nil {
		if len(e.sessions) >= e.cfg.MaxSessions {
			e.evictOldestSession()
		}
		si = &sessionInfo{lastAt: at, groups: map[string]int64{}}
		e.sessions[a.Session] = si
	}
	si.count++
	if at > si.lastAt {
		si.lastAt = at
	}
	if a.Group != "" {
		if prev, ok := si.groups[a.Group]; !ok || at < prev {
			si.groups[a.Group] = at
		}
	}
}

// evictOldestSession drops the tracked session with the oldest last
// activity (ties on smallest ID). The choice is deterministic for a
// given table, but which sessions are in the table past the cap depends
// on arrival order — the documented overload exception.
func (e *Engine) evictOldestSession() {
	var victim string
	var victimAt int64
	for id, si := range e.sessions {
		if victim == "" || si.lastAt < victimAt || (si.lastAt == victimAt && id < victim) {
			victim, victimAt = id, si.lastAt
		}
	}
	if victim != "" {
		delete(e.sessions, victim)
		e.sessionsEvicted++
	}
}
