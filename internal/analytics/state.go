package analytics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"intellog/internal/hwgraph"
)

// State is the engine's serialized form, carried inside the tenant
// checkpoint (as an opaque payload from the core's point of view) so a
// restart resumes aggregation instead of resetting it. Everything
// derivable is rebuilt on restore: the term interner, document
// frequencies, and cluster components come from the shapes.
type State struct {
	Version       int            `json:"version"`
	Observed      uint64         `json:"observed"`
	Localizations uint64         `json:"localizations"`
	MaxStart      int64          `json:"maxStart"`
	AnyAt         bool           `json:"anyAt"`
	Shapes        []shapeState   `json:"shapes,omitempty"`
	Buckets       []bucketState  `json:"buckets,omitempty"`
	Sessions      []sessionState `json:"sessions,omitempty"`

	ShapesDropped   uint64 `json:"shapesDropped,omitempty"`
	BucketsDropped  uint64 `json:"bucketsDropped,omitempty"`
	SessionsEvicted uint64 `json:"sessionsEvicted,omitempty"`
}

// shapeState preserves shapeList order: bucket states reference shapes
// positionally.
type shapeState struct {
	Terms         []string `json:"terms"`
	Count         uint64   `json:"count"`
	Kind          string   `json:"kind"`
	Group         string   `json:"group,omitempty"`
	Signature     string   `json:"signature,omitempty"`
	Sample        string   `json:"sample,omitempty"`
	SampleSession string   `json:"sampleSession,omitempty"`
	FirstAt       int64    `json:"firstAt"`
	Sessions      []string `json:"sessions,omitempty"`
	SessionCount  int      `json:"sessionCount"`
	Frozen        bool     `json:"frozen,omitempty"`
}

type bucketState struct {
	Start        int64             `json:"start"`
	Total        uint64            `json:"total"`
	Kinds        map[string]uint64 `json:"kinds,omitempty"`
	Shapes       map[string]uint64 `json:"shapes,omitempty"` // shape index (decimal; -1 = catch-all) → count
	Sessions     []string          `json:"sessions,omitempty"`
	SessionCount int               `json:"sessionCount"`
	Frozen       bool              `json:"frozen,omitempty"`
}

type sessionState struct {
	ID     string    `json:"id"`
	LastAt int64     `json:"lastAt"`
	Count  uint64    `json:"count"`
	Groups []groupAt `json:"groups,omitempty"`
}

type groupAt struct {
	Group string `json:"group"`
	At    int64  `json:"at"`
}

const stateVersion = 1

// State captures the engine for checkpointing.
func (e *Engine) State() *State {
	e.mu.Lock()
	defer e.mu.Unlock()

	st := &State{
		Version:         stateVersion,
		Observed:        e.observed,
		Localizations:   e.localizations,
		MaxStart:        e.maxStart,
		AnyAt:           e.anyAt,
		ShapesDropped:   e.shapesDropped,
		BucketsDropped:  e.bucketsDropped,
		SessionsEvicted: e.sessionsEvicted,
	}
	for _, sp := range e.shapeList {
		ss := shapeState{
			Terms:         sp.terms,
			Count:         sp.count,
			Kind:          sp.kind,
			Group:         sp.group,
			Signature:     sp.signature,
			Sample:        sp.sample,
			SampleSession: sp.sampleSes,
			FirstAt:       sp.firstAt,
			SessionCount:  sp.sessionCount,
			Frozen:        sp.frozen,
		}
		ss.Sessions = sortedSet(sp.sessions)
		st.Shapes = append(st.Shapes, ss)
	}
	for _, s := range e.sortedStartsLocked() {
		b := e.buckets[s]
		bs := bucketState{
			Start:        b.start,
			Total:        b.total,
			Kinds:        b.kinds,
			SessionCount: b.sessionCount,
			Frozen:       b.frozen,
		}
		bs.Shapes = make(map[string]uint64, len(b.shapes))
		for id, n := range b.shapes {
			bs.Shapes[strconv.Itoa(id)] = n
		}
		bs.Sessions = sortedSet(b.sessions)
		st.Buckets = append(st.Buckets, bs)
	}
	ids := make([]string, 0, len(e.sessions))
	for id := range e.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		si := e.sessions[id]
		ss := sessionState{ID: id, LastAt: si.lastAt, Count: si.count}
		groups := make([]string, 0, len(si.groups))
		for g := range si.groups {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			ss.Groups = append(ss.Groups, groupAt{Group: g, At: si.groups[g]})
		}
		st.Sessions = append(st.Sessions, ss)
	}
	return st
}

// StateJSON is State marshaled, for embedding in the checkpoint.
func (e *Engine) StateJSON() ([]byte, error) {
	return json.Marshal(e.State())
}

// Restore rebuilds an engine from a captured State.
func Restore(cfg Config, graph *hwgraph.Graph, st *State) (*Engine, error) {
	if st.Version != stateVersion {
		return nil, fmt.Errorf("analytics: unsupported state version %d", st.Version)
	}
	e := NewEngine(cfg, graph)
	e.observed = st.Observed
	e.localizations = st.Localizations
	e.maxStart = st.MaxStart
	e.anyAt = st.AnyAt
	e.shapesDropped = st.ShapesDropped
	e.bucketsDropped = st.BucketsDropped
	e.sessionsEvicted = st.SessionsEvicted

	for _, ss := range st.Shapes {
		sp := &shape{
			id:           len(e.shapeList),
			key:          strings.Join(ss.Terms, "\x1f"),
			terms:        ss.Terms,
			vec:          map[int]int{},
			count:        ss.Count,
			kind:         ss.Kind,
			group:        ss.Group,
			signature:    ss.Signature,
			sample:       ss.Sample,
			sampleSes:    ss.SampleSession,
			firstAt:      ss.FirstAt,
			sessionCount: ss.SessionCount,
			frozen:       ss.Frozen,
		}
		for _, t := range ss.Terms {
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
		if !sp.frozen {
			sp.sessions = make(map[string]struct{}, len(ss.Sessions))
			for _, s := range ss.Sessions {
				sp.sessions[s] = struct{}{}
			}
		}
		e.shapes[sp.key] = sp
		e.shapeList = append(e.shapeList, sp)
	}
	e.compDirty = true

	for _, bs := range st.Buckets {
		b := &bucket{
			start:        bs.Start,
			total:        bs.Total,
			kinds:        bs.Kinds,
			shapes:       map[int]uint64{},
			sessionCount: bs.SessionCount,
			frozen:       bs.Frozen,
		}
		if b.kinds == nil {
			b.kinds = map[string]uint64{}
		}
		for idStr, n := range bs.Shapes {
			id, err := strconv.Atoi(idStr)
			if err != nil {
				return nil, fmt.Errorf("analytics: bad shape ref %q in bucket state", idStr)
			}
			b.shapes[id] = n
		}
		if !b.frozen {
			b.sessions = make(map[string]struct{}, len(bs.Sessions))
			for _, s := range bs.Sessions {
				b.sessions[s] = struct{}{}
			}
		}
		e.buckets[b.start] = b
	}
	for _, ss := range st.Sessions {
		si := &sessionInfo{lastAt: ss.LastAt, count: ss.Count, groups: map[string]int64{}}
		for _, g := range ss.Groups {
			si.groups[g.Group] = g.At
		}
		e.sessions[ss.ID] = si
	}
	return e, nil
}

// RestoreJSON is Restore from a marshaled State.
func RestoreJSON(cfg Config, graph *hwgraph.Graph, data []byte) (*Engine, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("analytics: decoding state: %w", err)
	}
	return Restore(cfg, graph, &st)
}

func sortedSet(set map[string]struct{}) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
