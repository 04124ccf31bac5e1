// Package hwgraph builds the Hierarchical Workflow graph of §4.1: entity
// groups with lifespan-derived PARENT/BEFORE/PARALLEL relations between
// them, and per-group subroutines — ordered Intel Key sequences with
// critical-key marking — assembled by Algorithm 2 across training
// sessions.
package hwgraph

import (
	"sort"
	"strings"
	"sync/atomic"

	"intellog/internal/extract"
)

// Instance is one subroutine instance inside a session: the log messages
// sharing (subset-related) identifier values, per Algorithm 2. Sessions
// shatter into tens of thousands of small instances, so the identifier
// sets live in bitsets over run-scoped dense value IDs and the type set
// in a small sorted slice — no per-instance maps.
type Instance struct {
	// Msgs holds the instance's messages in log order.
	Msgs []*extract.Message

	// ord is the instance's creation rank within one AssignInstances run;
	// ties between candidate instances resolve to the earliest-created
	// one, matching the in-order scan of Algorithm 2.
	ord int
	// bits is the instance's value set (the S_v) over the run's dense
	// value IDs, and nIDs its population count.
	bits []uint64
	nIDs int
	// types is the sorted distinct identifier types. When typesShared is
	// set it aliases a Message's cached IdentifierTypes slice (the common
	// case: every message of an instance carries the same type set) and
	// must be copied before mutation. typesBuf is the instance's private
	// merge buffer for that copy, retained across Assigner recycling so
	// mixed-type instances stop allocating once the pool is warm.
	types       []string
	typesBuf    []string
	typesShared bool
	// sig caches Signature once computed (sigOK distinguishes a cached ""
	// from an uncomputed one). Instances whose types come whole from one
	// message inherit the message's cached join, so the common case never
	// builds the string at all.
	sig   string
	sigOK bool
	// vals is the run's dense-ID → value table, shared by every instance
	// of one AssignInstances call (for IDValues).
	vals []string
}

// bit reports whether dense value id is in the instance's set.
func (in *Instance) bit(id int) bool {
	w := id >> 6
	return w < len(in.bits) && in.bits[w]&(1<<(id&63)) != 0
}

// setBit adds dense value id to the instance's set.
func (in *Instance) setBit(id int) {
	w := id >> 6
	for len(in.bits) <= w {
		in.bits = append(in.bits, 0)
	}
	in.bits[w] |= 1 << (id & 63)
	in.nIDs++
}

// IDValues returns the instance's identifier values (the S_v), sorted.
func (in *Instance) IDValues() []string {
	out := make([]string, 0, in.nIDs)
	for id, v := range in.vals {
		if in.bit(id) {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Signature returns the instance's subroutine signature: the sorted
// identifier types joined with "+", or "" for the NONE instance.
func (in *Instance) Signature() string {
	if in.sigOK {
		return in.sig
	}
	if len(in.types) > 0 {
		in.sig = strings.Join(in.types, "+")
	}
	in.sigOK = true
	return in.sig
}

// AssignInstances implements the per-session loop of Algorithm 2: messages
// with no identifiers accumulate in the NONE instance; a message whose
// identifier set is a subset or superset of an existing instance's set
// joins (and widens) that instance; otherwise it founds a new instance.
// The result stays valid indefinitely; hot paths that consume instances
// before assigning again should hold an Assigner instead.
func AssignInstances(msgs []*extract.Message) []*Instance {
	return new(Assigner).Assign(msgs)
}

// Assigner runs AssignInstances with reusable scratch state. Training and
// detection call Algorithm 2 once per (session, group) pair — tens of
// thousands of short runs — and the per-run value tables and instance
// structs dominated the allocation profile, so an Assigner keeps them
// across runs. Identifier values arrive hashed on the messages
// (extract.IDValue, cached per distinct rendering); each run maps hash →
// run-dense id through a small open-addressing table the Assigner owns,
// confirming the string on a hash match, so the hot loop hashes no
// string, takes no lock and shares nothing. Every structure here is sized
// by the widest run seen, never by the stream. The returned instances
// (and their IDValues) are only valid until the next Assign call on the
// same Assigner; callers that retain instances must use AssignInstances.
type Assigner struct {
	// runID stamps the table slots the current run wrote; slots carrying
	// any other stamp read as empty, so starting a run clears nothing.
	runID uint32
	table []valSlot // len is a power of two, at most half full
	// dropHashBits is cleared from every value hash before it is used.
	// Zero outside tests, which set it to force distinct values onto one
	// hash.
	dropHashBits uint64

	vals    []string      // run-dense id → value
	byValue [][]*Instance // run-dense id → instances containing it, creation order
	setIDs  []int         // per message: run-dense ids of its distinct values
	setCnt  []int         // occurrence count per entry of setIDs (sets can
	// repeat a value, and the ids ⊆ set comparison counts occurrences)
	instances []*Instance
	free      []*Instance // expired runs' instances, recycled with their capacity
	arena     []Instance  // chunked Instance allocation
}

// valSlot is one entry of the Assigner's hash → run-dense id table.
type valSlot struct {
	hash  uint64
	runID uint32
	id    int32
}

// denseID returns the run-dense id of value v (with hash h), assigning
// the next one on first sight in this run.
func (a *Assigner) denseID(v string, h uint64) int {
	if 2*(len(a.vals)+1) > len(a.table) {
		a.growTable()
	}
	mask := uint64(len(a.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &a.table[i]
		if s.runID != a.runID {
			id := len(a.vals)
			*s = valSlot{hash: h, runID: a.runID, id: int32(id)}
			a.vals = append(a.vals, v)
			if id < cap(a.byValue) {
				// Reuse the expired run's posting-list backing array.
				a.byValue = a.byValue[:id+1]
				a.byValue[id] = a.byValue[id][:0]
			} else {
				a.byValue = append(a.byValue, nil)
			}
			return id
		}
		// Equal hashes are not proof: two values may collide, and merging
		// them would merge their instances.
		if s.hash == h && a.vals[s.id] == v {
			return int(s.id)
		}
	}
}

// growTable doubles the table, carrying over the current run's slots.
func (a *Assigner) growTable() {
	old := a.table
	a.table = make([]valSlot, max(64, 2*len(old)))
	mask := uint64(len(a.table) - 1)
	for _, s := range old {
		if s.runID != a.runID {
			continue
		}
		i := s.hash & mask
		for a.table[i].runID == a.runID {
			i = (i + 1) & mask
		}
		a.table[i] = s
	}
}

// newInstance hands out a reset Instance: recycled from an expired run
// when possible (keeping the grown Msgs/bits backing arrays), from the
// chunked arena otherwise.
func (a *Assigner) newInstance(ord int) *Instance {
	if n := len(a.free); n > 0 {
		in := a.free[n-1]
		a.free = a.free[:n-1]
		*in = Instance{Msgs: in.Msgs[:0], bits: in.bits[:0], typesBuf: in.typesBuf, ord: ord}
		return in
	}
	if len(a.arena) == 0 {
		a.arena = make([]Instance, 256)
	}
	in := &a.arena[0]
	a.arena = a.arena[1:]
	in.ord = ord
	return in
}

// Assign is AssignInstances over the reusable scratch. Instead of
// scanning every instance per message, byValue indexes instances by the
// identifier values they contain. Any subset-related instance shares at
// least one value with the message's (non-empty) set — set ⊆ IDs puts
// every set value in IDs, and IDs ⊆ set the reverse — so the union of the
// per-value lists is a complete candidate set, and the earliest-created
// subset-related candidate is exactly the instance the in-order scan
// would have picked first.
func (a *Assigner) Assign(msgs []*extract.Message) []*Instance {
	a.runID++
	if a.runID == 0 {
		// The stamp wrapped: slots from 2^32 runs ago would read as live.
		clear(a.table)
		a.runID = 1
	}
	a.vals = a.vals[:0]
	a.byValue = a.byValue[:0]
	// The previous run's instances are contractually dead once Assign is
	// called again; recycle them (with their backing arrays) instead of
	// leaving them to the collector.
	a.free = append(a.free, a.instances...)
	a.instances = a.instances[:0]
	none := a.newInstance(0)
	instances := append(a.instances, none)
	// Consecutive-duplicate fast path: session streams repeat the same
	// rendering back-to-back (heartbeats, retry storms), and repeats share
	// one prototype Message pointer. Immediately after m was assigned to
	// lastTarget, every one of m's values is in lastTarget and no other
	// instance has changed, so the scan would pick lastTarget again; the
	// repeat reduces to one append.
	var lastMsg *extract.Message
	var lastTarget *Instance
	for _, m := range msgs {
		if m == lastMsg {
			lastTarget.Msgs = append(lastTarget.Msgs, m)
			continue
		}
		ivs := m.IdentifierValues()
		if len(ivs) == 0 {
			none.Msgs = append(none.Msgs, m)
			lastMsg, lastTarget = m, none
			continue
		}
		setIDs, setCnt, total := a.setIDs[:0], a.setCnt[:0], 0
		for i := range ivs {
			iv := &ivs[i]
			setIDs = append(setIDs, a.denseID(iv.Val, iv.Hash&^a.dropHashBits))
			setCnt = append(setCnt, int(iv.Count))
			total += int(iv.Count)
		}
		a.setIDs, a.setCnt = setIDs, setCnt
		var target *Instance
		for _, id := range setIDs {
			for _, in := range a.byValue[id] {
				if (target == nil || in.ord < target.ord) && subsetRelated(setIDs, setCnt, total, in) {
					target = in
				}
			}
		}
		if target == nil {
			target = a.newInstance(len(instances))
			instances = append(instances, target)
		}
		for _, id := range setIDs {
			if !target.bit(id) {
				target.setBit(id)
				a.byValue[id] = append(a.byValue[id], target)
			}
		}
		a.mergeTypes(target, m)
		target.Msgs = append(target.Msgs, m)
		lastMsg, lastTarget = m, target
	}
	for _, in := range instances {
		in.vals = a.vals
	}
	a.instances = instances
	if len(none.Msgs) == 0 {
		instances = instances[1:]
	}
	return instances
}

// mergeTypes folds m's identifier-type set into target's, preserving the
// shared-slice fast path: a fresh instance aliases the message's cached
// set (and its cached signature join); a genuine merge copies into the
// instance's retained buffer first.
func (a *Assigner) mergeTypes(target *Instance, m *extract.Message) {
	if mts := m.IdentifierTypes(); target.types == nil {
		target.types = mts
		target.typesShared = true
		// Inherit the message's cached signature join — built once per
		// distinct rendering instead of once per instance.
		target.sig = m.TypeSignature()
		target.sigOK = true
	} else if !sameStrings(target.types, mts) {
		if target.typesShared {
			// Copy into the instance's retained merge buffer rather than
			// a fresh slice; the shared (message-cached) set itself is
			// never mutated.
			target.types = append(target.typesBuf[:0], target.types...)
			target.typesShared = false
		}
		for _, t := range mts {
			target.types = insertSorted(target.types, t)
		}
		target.typesBuf = target.types
		target.sig, target.sigOK = "", false
	}
}

// sameStrings reports whether a and b hold the same sequence. Instance
// type sets usually alias the same cached slice, so identical backing
// arrays short-circuit before any comparison.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insertSorted inserts v into sorted s if absent. Type sets hold a
// handful of entries, so a linear scan beats any set structure.
func insertSorted(s []string, v string) []string {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// subsetRelated reports whether set ⊆ in.IDs or in.IDs ⊆ set (Algorithm 2
// line 9–10), over the run's dense value IDs. set holds the distinct ids,
// cnt their occurrence counts, and total the set's length with
// duplicates; occurrences are counted because the instance-side
// comparison matches total occurrences against the instance's set size.
func subsetRelated(set, cnt []int, total int, in *Instance) bool {
	inIds := 0
	for i, id := range set {
		if in.bit(id) {
			inIds += cnt[i]
		}
	}
	if inIds == total {
		return true // set ⊆ ids
	}
	return inIds == in.nIDs && in.nIDs > 0 // ids ⊆ set
}

// Subroutine is the trained order model for one signature within an
// entity group: the Intel Keys observed, BEFORE relations among them, and
// the critical keys that appear in every instance (Fig. 5).
type Subroutine struct {
	// Signature is the sorted identifier-type join.
	Signature string `json:"signature"`
	// Keys lists Intel Key IDs in first-seen order.
	Keys []int `json:"keys"`
	// Critical marks keys present in every observed instance.
	Critical map[int]bool `json:"critical"`
	// Before holds the surviving order relations: Before[a][b] means key a
	// always appeared before key b.
	Before map[int]map[int]bool `json:"before"`
	// Instances counts observed instances.
	Instances int `json:"instances"`

	// broken records key pairs whose order relation was observed in both
	// directions and therefore removed (parallel keys, Fig. 5).
	broken map[[2]int]bool
	// scratch backs Update's first-occurrence buffer across calls. Update
	// runs only during (sequential) training; concurrent detection paths
	// like Violations must not touch it.
	scratch []int
	// frozen caches detection-time views of Before and Critical (see
	// frozenTables), built lazily on first check and invalidated by
	// Update. Concurrent detection workers may race the first build; the
	// tables are deterministic, so the duplicate work is harmless.
	frozen atomic.Pointer[frozenTables]
}

// frozenTables is the detection-shaped view of a trained subroutine:
// the surviving BEFORE relations flattened to a pair list sorted by
// (a, b), and the critical keys in Keys order. ViolationsOrder and
// MissingCritical used to re-walk the training maps per instance —
// map iteration per check dominated the structural-check CPU profile —
// whereas these slices scan linearly and yield already-sorted output.
type frozenTables struct {
	pairs    [][2]int
	critical []int
}

// tables returns the frozen views, building them on first use.
func (s *Subroutine) tables() *frozenTables {
	if t := s.frozen.Load(); t != nil {
		return t
	}
	t := &frozenTables{}
	for _, k := range s.Keys {
		if s.Critical[k] {
			t.critical = append(t.critical, k)
		}
	}
	for a, succ := range s.Before {
		for b := range succ {
			t.pairs = append(t.pairs, [2]int{a, b})
		}
	}
	sort.Slice(t.pairs, func(i, j int) bool {
		if t.pairs[i][0] != t.pairs[j][0] {
			return t.pairs[i][0] < t.pairs[j][0]
		}
		return t.pairs[i][1] < t.pairs[j][1]
	})
	s.frozen.Store(t)
	return t
}

// NewSubroutine returns an empty subroutine for a signature.
func NewSubroutine(sig string) *Subroutine {
	return &Subroutine{
		Signature: sig,
		Critical:  map[int]bool{},
		Before:    map[int]map[int]bool{},
	}
}

// Update implements UPDATESUBROUTINE (Fig. 5) for one instance's key
// sequence: first co-occurrence of a key pair records a BEFORE relation;
// a later inversion breaks it (the keys become parallel); keys absent
// from an instance lose critical status; keys first seen after other
// instances existed are never critical.
func (s *Subroutine) Update(seq []int) {
	order := firstOccurrenceInto(s.scratch[:0], seq)
	s.scratch = order
	// Key membership and criticality. order and s.Keys hold a handful of
	// distinct keys, so linear scans beat per-call set maps.
	for _, k := range order {
		if !containsInt(s.Keys, k) {
			s.Keys = append(s.Keys, k)
			// Critical only if this is the very first instance.
			s.Critical[k] = s.Instances == 0
		}
	}
	if s.Instances > 0 {
		for k := range s.Critical {
			if s.Critical[k] && !containsInt(order, k) {
				s.Critical[k] = false
			}
		}
	}
	// Order relations among co-present keys.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			a, b := order[i], order[j]
			if s.before(b, a) {
				// Inversion observed: break both directions → parallel.
				delete(s.Before[b], a)
				delete(s.Before[a], b)
				s.brokenPairs()[pairKey(a, b)] = true
				continue
			}
			if !s.pairSeen(a, b) {
				if s.Before[a] == nil {
					s.Before[a] = map[int]bool{}
				}
				s.Before[a][b] = true
			}
		}
	}
	s.Instances++
	// Invalidate the frozen detection views; the next check rebuilds them
	// from the updated maps.
	s.frozen.Store(nil)
}

// Violations returns the order relations an instance's key sequence
// breaks: pairs (a,b) with a trained BEFORE b but b observed first.
func (s *Subroutine) Violations(seq []int) [][2]int {
	return s.ViolationsOrder(firstOccurrence(seq))
}

// ViolationsOrder is Violations over a sequence already reduced to first
// occurrences (see FirstOccurrenceInto) — the detection hot path reduces
// once per instance into caller scratch and feeds every check from it.
func (s *Subroutine) ViolationsOrder(order []int) [][2]int {
	var out [][2]int
	t := s.tables()
	lastA, lastPA := -1, -1
	for _, p := range t.pairs {
		a, b := p[0], p[1]
		pa := lastPA
		if a != lastA {
			pa = indexOfInt(order, a)
			lastA, lastPA = a, pa
		}
		if pa < 0 {
			continue
		}
		if pb := indexOfInt(order, b); pb >= 0 && pb < pa {
			out = append(out, p)
		}
	}
	// t.pairs is sorted by (a, b), so out already is — no per-call sort.
	return out
}

// MissingCritical returns the critical keys absent from an instance's key
// sequence. Duplicates in seq are irrelevant, so a first-occurrence-
// reduced sequence (FirstOccurrenceInto) gives the same answer cheaper.
func (s *Subroutine) MissingCritical(seq []int) []int {
	var out []int
	for _, k := range s.tables().critical {
		if !containsInt(seq, k) {
			out = append(out, k)
		}
	}
	return out
}

// CriticalLen returns the number of critical keys.
func (s *Subroutine) CriticalLen() int {
	n := 0
	for _, c := range s.Critical {
		if c {
			n++
		}
	}
	return n
}

// before reports whether a trained BEFORE relation a→b exists.
func (s *Subroutine) before(a, b int) bool { return s.Before[a][b] }

// pairSeen reports whether keys a and b have co-occurred before, either
// with a surviving order relation or as an explicitly broken (parallel)
// pair.
func (s *Subroutine) pairSeen(a, b int) bool {
	if s.before(a, b) || s.before(b, a) {
		return true
	}
	return s.brokenPairs()[pairKey(a, b)]
}

// brokenPairs lazily allocates the broken-pair set.
func (s *Subroutine) brokenPairs() map[[2]int]bool {
	if s.broken == nil {
		s.broken = map[[2]int]bool{}
	}
	return s.broken
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// firstOccurrence reduces a key sequence to first occurrences, preserving
// order.
func firstOccurrence(seq []int) []int {
	return firstOccurrenceInto(nil, seq)
}

// FirstOccurrenceInto reduces a key sequence to first occurrences,
// preserving order, appending into out (pass scratch[:0] to reuse a
// buffer). The result feeds ViolationsOrder and MissingCritical without
// a per-instance allocation.
func FirstOccurrenceInto(out, seq []int) []int {
	return firstOccurrenceInto(out, seq)
}

// firstOccurrenceInto is firstOccurrence appending into out. Typical
// instance sequences hold a handful of distinct keys, so the output
// doubles as the membership set; a map takes over only when the
// quadratic scan could actually bite.
func firstOccurrenceInto(out, seq []int) []int {
	if len(seq) <= 64 {
	next:
		for _, k := range seq {
			for _, o := range out {
				if o == k {
					continue next
				}
			}
			out = append(out, k)
		}
		return out
	}
	seen := make(map[int]bool, len(seq))
	for _, k := range seq {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// containsInt reports whether s contains v.
func containsInt(s []int, v int) bool { return indexOfInt(s, v) >= 0 }

// indexOfInt returns the index of v in s, or -1.
func indexOfInt(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
