package hwgraph

import (
	"sort"

	"intellog/internal/extract"
	"intellog/internal/group"
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

	// Per-session scratch, reused across AddSession calls (the builder
	// folds sessions sequentially): Algorithm 2 state, the group
	// partition, spans and touched-group marks, the per-key multiplicity
	// counter, and the instance key-sequence buffer.
	asn     Assigner
	byGroup [][]*extract.Message
	spans   []Span
	mark    []bool
	touched []int
	perKey  map[int]int
	seq     []int
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
	b.byGroup = make([][]*extract.Message, n)
	b.spans = make([]Span, n)
	b.mark = make([]bool, n)
	b.perKey = map[int]int{}
	return b
}

// GroupMessages partitions a session's messages by entity group,
// preserving order and recording each message's session index. A message
// belongs to every group its Intel Key belongs to.
func (b *Builder) GroupMessages(msgs []*extract.Message) (map[string][]*extract.Message, map[string]Span) {
	byGroup := map[string][]*extract.Message{}
	spans := map[string]Span{}
	for idx, m := range msgs {
		for _, g := range b.KeyGroups[m.KeyID] {
			byGroup[g] = append(byGroup[g], m)
			sp, ok := spans[g]
			if !ok {
				spans[g] = Span{First: idx, Last: idx}
			} else {
				sp.Last = idx
				spans[g] = sp
			}
		}
	}
	return byGroup, spans
}

// AddSession folds one training session (its Intel Messages in log order)
// into the model: group lifespans feed the relation tracker, and each
// group's messages are split into subroutine instances (Algorithm 2)
// that update the per-signature subroutines.
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
		for _, gi := range b.keyGroupIdx[m.KeyID] {
			if !b.mark[gi] {
				b.mark[gi] = true
				touched = append(touched, gi)
				b.spans[gi] = Span{First: idx, Last: idx}
				// Keep the group slice's backing array from earlier
				// sessions.
				b.byGroup[gi] = b.byGroup[gi][:0]
			} else {
				b.spans[gi].Last = idx
			}
			b.byGroup[gi] = append(b.byGroup[gi], m)
		}
	}
	sort.Ints(touched)
	b.touched = touched
	b.rels.observe(touched, b.spans)
	for _, gi := range touched {
		b.mark[gi] = false
		gmsgs := b.byGroup[gi]
		b.groupSessions[gi]++
		// Criterion 2 for critical groups: a key with multiple messages in
		// a single session.
		clear(b.perKey)
		for _, m := range gmsgs {
			b.perKey[m.KeyID]++
			if b.perKey[m.KeyID] > 1 {
				b.multiPerSess[gi] = true
			}
		}
		for _, inst := range b.asn.Assign(gmsgs) {
			sig := inst.Signature()
			subs := b.subsByGroup[gi]
			if subs == nil {
				subs = map[string]*Subroutine{}
				b.subsByGroup[gi] = subs
			}
			sub := subs[sig]
			if sub == nil {
				sub = NewSubroutine(sig)
				subs[sig] = sub
			}
			seq := b.seq[:0]
			for _, m := range inst.Msgs {
				seq = append(seq, m.KeyID)
			}
			b.seq = seq
			sub.Update(seq)
		}
	}
}

// Graph finalises the model into the HW-graph. PARENT/BEFORE relations
// require support in at least 10% of training sessions (min 2) to be
// trusted; rare co-occurrences stay PARALLEL.
func (b *Builder) Graph() *Graph {
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
