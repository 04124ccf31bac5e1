package hwgraph

import (
	"sort"
	"sync/atomic"

	"intellog/internal/extract"
	"intellog/internal/group"
	"intellog/internal/par"
)

// MiscGroup collects Intel Keys that extracted no entities; they still
// participate in detection (unexpected-message matching) but carry no
// nomenclature signal.
const MiscGroup = "(misc)"

// Builder accumulates training sessions and produces the HW-graph.
type Builder struct {
	// Keys maps Intel Key ID → key.
	Keys map[int]*extract.IntelKey
	// Groups is the Algorithm 1 entity grouping.
	Groups *group.Groups
	// KeyGroups maps Intel Key ID → the entity groups it belongs to.
	KeyGroups map[int][]string

	rels      *relTracker
	groupKeys map[string]map[int]bool
	sessions  int

	// Dense group indexing: allGroups lists every group with at least one
	// key in lexicographic order, groupIdx inverts it, and keyGroupIdx
	// maps Intel Key ID → ascending group ids. The per-message training
	// loop runs entirely on these ids — no string hashing.
	allGroups   []string
	groupIdx    map[string]int
	keyGroupIdx [][]int // indexed by Intel Key ID

	// Per-group aggregates, indexed by group id.
	subsByGroup   []map[string]*Subroutine // signature → subroutine
	groupSessions []int
	multiPerSess  []bool // group had a key with >1 message in one session

	// pending holds, per group id, the message runs AddSession recorded
	// and Graph has not yet folded, in session order.
	pending []pendingRuns

	// Per-session scratch, reused across AddSession calls: the spans and
	// touched-group marks.
	spans   []Span
	mark    []bool
	touched []int
}

// pendingRuns is one group's unfolded message runs: run r is
// msgs[ends[r-1]:ends[r]], one per session that touched the group.
type pendingRuns struct {
	msgs []*extract.Message
	ends []int
}

// folder is one fold worker's scratch: Algorithm 2 state, the per-key
// multiplicity counter and the instance key-sequence buffer.
type folder struct {
	asn    Assigner
	perKey map[int]int
	seq    []int
}

// NewBuilder indexes the Intel Keys, builds the entity grouping from
// their entities, and prepares per-group state.
func NewBuilder(keys []*extract.IntelKey) *Builder {
	b := &Builder{
		Keys:      map[int]*extract.IntelKey{},
		KeyGroups: map[int][]string{},
		groupKeys: map[string]map[int]bool{},
	}
	var entities []string
	for _, k := range keys {
		b.Keys[k.ID] = k
		entities = append(entities, k.Entities...)
	}
	b.Groups = group.Build(entities)
	for _, k := range keys {
		groups := map[string]bool{}
		for _, e := range k.Entities {
			for _, g := range b.Groups.GroupsOf(e) {
				groups[g] = true
			}
		}
		if len(groups) == 0 {
			groups[MiscGroup] = true
		}
		names := make([]string, 0, len(groups))
		for g := range groups {
			names = append(names, g)
		}
		sort.Strings(names)
		b.KeyGroups[k.ID] = names
		for _, g := range names {
			if b.groupKeys[g] == nil {
				b.groupKeys[g] = map[int]bool{}
			}
			b.groupKeys[g][k.ID] = true
		}
	}
	for g := range b.groupKeys {
		b.allGroups = append(b.allGroups, g)
	}
	sort.Strings(b.allGroups)
	b.groupIdx = make(map[string]int, len(b.allGroups))
	for i, g := range b.allGroups {
		b.groupIdx[g] = i
	}
	maxID := -1
	for id := range b.KeyGroups {
		if id > maxID {
			maxID = id
		}
	}
	b.keyGroupIdx = make([][]int, maxID+1)
	for id, names := range b.KeyGroups {
		idxs := make([]int, len(names))
		for i, g := range names {
			idxs[i] = b.groupIdx[g] // names sorted → idxs ascending
		}
		b.keyGroupIdx[id] = idxs
	}
	n := len(b.allGroups)
	b.rels = newRelTracker(b.allGroups)
	b.subsByGroup = make([]map[string]*Subroutine, n)
	b.groupSessions = make([]int, n)
	b.multiPerSess = make([]bool, n)
	b.pending = make([]pendingRuns, n)
	b.spans = make([]Span, n)
	b.mark = make([]bool, n)
	return b
}

// AddSession records one training session (its Intel Messages in log
// order): group lifespans feed the relation tracker now, and each touched
// group's messages are queued as one run for Graph to split into
// subroutine instances (Algorithm 2).
func (b *Builder) AddSession(msgs []*extract.Message) {
	if len(msgs) == 0 {
		return
	}
	b.sessions++
	touched := b.touched[:0]
	for idx, m := range msgs {
		if m.KeyID < 0 || m.KeyID >= len(b.keyGroupIdx) {
			continue
		}
		gis := b.keyGroupIdx[m.KeyID]
		if len(gis) > 0 {
			// The group folds read a shared message from several
			// goroutines; fill its lazy identifier caches here, once.
			m.IdentifierValues()
			m.TypeSignature()
		}
		for _, gi := range gis {
			if !b.mark[gi] {
				b.mark[gi] = true
				touched = append(touched, gi)
				b.spans[gi] = Span{First: idx, Last: idx}
			} else {
				b.spans[gi].Last = idx
			}
			b.pending[gi].msgs = append(b.pending[gi].msgs, m)
		}
	}
	sort.Ints(touched)
	b.touched = touched
	b.rels.observe(touched, b.spans)
	for _, gi := range touched {
		b.mark[gi] = false
		p := &b.pending[gi]
		p.ends = append(p.ends, len(p.msgs))
	}
}

// foldOrder lists the groups with pending runs, the most pending
// messages first, so the longest folds start before the short ones.
func (b *Builder) foldOrder() []int {
	var order []int
	for gi := range b.pending {
		if len(b.pending[gi].ends) > 0 {
			order = append(order, gi)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(b.pending[order[i]].msgs) > len(b.pending[order[j]].msgs)
	})
	return order
}

// fold folds the pending runs of the groups in order on workers
// goroutines, each taking the next group in order when it is free.
// Groups share no state, and each group folds its own runs in session
// order, so the result does not depend on order or workers.
func (b *Builder) fold(order []int, workers int) {
	workers = min(workers, len(order))
	var next atomic.Int64
	par.ForEach(workers, workers, func(int) {
		var f folder
		for {
			i := int(next.Add(1)) - 1
			if i >= len(order) {
				return
			}
			b.foldGroup(order[i], &f)
		}
	})
}

// foldGroup folds group gi's pending runs, in session order: the group's
// session count, criterion 2 for critical groups (a key with multiple
// messages in one session), and Algorithm 2's instances into the
// per-signature subroutines.
func (b *Builder) foldGroup(gi int, f *folder) {
	p := &b.pending[gi]
	if f.perKey == nil {
		f.perKey = map[int]int{}
	}
	subs := b.subsByGroup[gi]
	if subs == nil {
		subs = map[string]*Subroutine{}
		b.subsByGroup[gi] = subs
	}
	start := 0
	for _, end := range p.ends {
		run := p.msgs[start:end]
		start = end
		b.groupSessions[gi]++
		clear(f.perKey)
		for _, m := range run {
			f.perKey[m.KeyID]++
			if f.perKey[m.KeyID] > 1 {
				b.multiPerSess[gi] = true
			}
		}
		for _, inst := range f.asn.Assign(run) {
			sig := inst.Signature()
			sub := subs[sig]
			if sub == nil {
				sub = NewSubroutine(sig)
				subs[sig] = sub
			}
			seq := f.seq[:0]
			for _, m := range inst.Msgs {
				seq = append(seq, m.KeyID)
			}
			f.seq = seq
			sub.Update(seq)
		}
	}
	p.msgs, p.ends = p.msgs[:0], p.ends[:0]
}

// Graph folds every pending run, in parallel across groups, and
// finalises the model into the HW-graph. PARENT/BEFORE relations require
// support in at least 10% of training sessions (min 2) to be trusted;
// rare co-occurrences stay PARALLEL. More sessions may be added after
// Graph; a later Graph folds them on top.
func (b *Builder) Graph() *Graph {
	b.fold(b.foldOrder(), par.Workers())
	return b.assembleGraph()
}

// assembleGraph builds the HW-graph from the folded aggregates.
func (b *Builder) assembleGraph() *Graph {
	b.rels.minSupport = b.sessions / 10
	if b.rels.minSupport < 2 {
		b.rels.minSupport = 2
	}
	g := &Graph{Nodes: map[string]*Node{}, TotalSessions: b.sessions, rels: b.rels}
	for _, gr := range b.Groups.List {
		b.addNode(g, gr.Name, gr.Entities)
	}
	if _, ok := b.groupKeys[MiscGroup]; ok {
		b.addNode(g, MiscGroup, nil)
	}
	g.assemble()
	return g
}

func (b *Builder) addNode(g *Graph, name string, entities []string) {
	keyIDs := make([]int, 0, len(b.groupKeys[name]))
	for id := range b.groupKeys[name] {
		keyIDs = append(keyIDs, id)
	}
	sort.Ints(keyIDs)
	var subs map[string]*Subroutine
	var sessions int
	var multi bool
	if gi, ok := b.groupIdx[name]; ok {
		subs = b.subsByGroup[gi]
		sessions = b.groupSessions[gi]
		multi = b.multiPerSess[gi]
	}
	if subs == nil {
		subs = map[string]*Subroutine{}
	}
	g.Nodes[name] = &Node{
		Name:        name,
		Entities:    entities,
		Keys:        keyIDs,
		Subroutines: subs,
		Critical:    len(keyIDs) > 1 || multi,
		Sessions:    sessions,
	}
}
