package hwgraph

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"intellog/internal/extract"
)

// msg fabricates an Intel Message with the given key and identifiers.
func msg(keyID int, ids map[string][]string) *extract.Message {
	if ids == nil {
		ids = map[string][]string{}
	}
	return &extract.Message{KeyID: keyID, Identifiers: ids}
}

func id1(typ, val string) map[string][]string { return map[string][]string{typ: {val}} }

func TestAssignInstancesNoneAndMerge(t *testing.T) {
	msgs := []*extract.Message{
		msg(0, nil),               // NONE
		msg(1, id1("TASK", "t1")), // instance A
		msg(2, id1("TASK", "t2")), // instance B
		msg(3, map[string][]string{"TASK": {"t1"}, "TID": {"x9"}}), // superset of A → joins A
		msg(4, id1("TID", "x9")),                                   // subset of A (now contains x9) → joins A
		msg(5, nil),                                                // NONE
	}
	instances := AssignInstances(msgs)
	if len(instances) != 3 {
		t.Fatalf("got %d instances, want 3 (NONE, A, B)", len(instances))
	}
	none := instances[0]
	if none.Signature() != "" || len(none.Msgs) != 2 {
		t.Errorf("NONE instance wrong: sig=%q msgs=%d", none.Signature(), len(none.Msgs))
	}
	a := instances[1]
	if len(a.Msgs) != 3 {
		t.Errorf("instance A has %d msgs, want 3", len(a.Msgs))
	}
	if got := a.Signature(); got != "TASK+TID" {
		t.Errorf("A signature = %q, want TASK+TID", got)
	}
	b := instances[2]
	if len(b.Msgs) != 1 || b.Signature() != "TASK" {
		t.Errorf("instance B wrong: %v %q", len(b.Msgs), b.Signature())
	}
}

func TestAssignInstancesDropsEmptyNone(t *testing.T) {
	instances := AssignInstances([]*extract.Message{msg(1, id1("TASK", "t1"))})
	if len(instances) != 1 {
		t.Fatalf("got %d instances, want 1", len(instances))
	}
	if instances[0].Signature() != "TASK" {
		t.Error("wrong signature")
	}
}

// TestSubroutineFigure5 reproduces the Fig. 5 walkthrough: two sessions of
// [A B C D], then [A C B D] breaks B–C order, then [A B C] demotes D.
func TestSubroutineFigure5(t *testing.T) {
	const (
		A = 0
		B = 1
		C = 2
		D = 3
	)
	s := NewSubroutine("ID1+ID2")
	s.Update([]int{A, B, C, D})
	s.Update([]int{A, B, C, D})
	if !s.Critical[A] || !s.Critical[B] || !s.Critical[C] || !s.Critical[D] {
		t.Fatalf("all keys should be critical after identical instances: %v", s.Critical)
	}
	if !s.Before[B][C] {
		t.Fatal("B before C should hold")
	}
	s.Update([]int{A, C, B, D})
	if s.Before[B][C] || s.Before[C][B] {
		t.Errorf("B and C should be parallel after inversion: %v", s.Before)
	}
	if !s.Before[A][B] || !s.Before[A][C] || !s.Before[B][D] {
		t.Errorf("unrelated relations must survive: %v", s.Before)
	}
	s.Update([]int{A, B, C})
	if s.Critical[D] {
		t.Error("D must lose critical status after absence")
	}
	if !s.Critical[A] {
		t.Error("A must stay critical")
	}
	if s.CriticalLen() != 3 {
		t.Errorf("CriticalLen = %d, want 3", s.CriticalLen())
	}
	// A later re-occurrence of the B/C pair must not resurrect the order.
	s.Update([]int{A, B, C, D})
	if s.Before[B][C] || s.Before[C][B] {
		t.Error("broken pair resurrected")
	}
}

func TestSubroutineLateKeyNeverCritical(t *testing.T) {
	s := NewSubroutine("")
	s.Update([]int{1, 2})
	s.Update([]int{1, 2, 3})
	if s.Critical[3] {
		t.Error("late-arriving key marked critical")
	}
	if !reflect.DeepEqual(s.Keys, []int{1, 2, 3}) {
		t.Errorf("Keys = %v", s.Keys)
	}
}

func TestSubroutineViolationsAndMissing(t *testing.T) {
	s := NewSubroutine("")
	s.Update([]int{1, 2, 3})
	s.Update([]int{1, 2, 3})
	if v := s.Violations([]int{2, 1, 3}); len(v) != 1 || v[0] != [2]int{1, 2} {
		t.Errorf("Violations = %v, want [[1 2]]", v)
	}
	if v := s.Violations([]int{1, 2, 3}); len(v) != 0 {
		t.Errorf("clean sequence has violations: %v", v)
	}
	if m := s.MissingCritical([]int{1, 3}); len(m) != 1 || m[0] != 2 {
		t.Errorf("MissingCritical = %v, want [2]", m)
	}
	if m := s.MissingCritical([]int{1, 2, 3}); len(m) != 0 {
		t.Errorf("complete sequence missing: %v", m)
	}
}

func TestSubroutineDuplicateKeysInInstance(t *testing.T) {
	s := NewSubroutine("")
	s.Update([]int{1, 1, 2, 1})
	if !reflect.DeepEqual(s.Keys, []int{1, 2}) {
		t.Errorf("Keys = %v, want [1 2]", s.Keys)
	}
	if !s.Before[1][2] {
		t.Error("first occurrence should define order")
	}
}

func TestSpanRelation(t *testing.T) {
	cases := []struct {
		a, b Span
		want Relation
	}{
		{Span{0, 10}, Span{2, 5}, Parent},
		{Span{2, 5}, Span{0, 10}, Child},
		{Span{0, 3}, Span{4, 8}, Before},
		{Span{4, 8}, Span{0, 3}, After},
		{Span{0, 5}, Span{3, 8}, Parallel},
		{Span{0, 5}, Span{0, 5}, Parallel},
	}
	for _, c := range cases {
		if got := spanRelation(c.a, c.b); got != c.want {
			t.Errorf("spanRelation(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelTrackerDowngradesToParallel(t *testing.T) {
	tr := newRelTracker([]string{"a", "b"})
	tr.observe([]int{0, 1}, []Span{{0, 10}, {2, 5}})
	if got := tr.relation("a", "b"); got != Parent {
		t.Fatalf("relation = %v, want Parent", got)
	}
	if got := tr.relation("b", "a"); got != Child {
		t.Fatalf("inverse = %v, want Child", got)
	}
	// A session where b escapes a's lifespan breaks the PARENT relation.
	tr.observe([]int{0, 1}, []Span{{0, 10}, {8, 12}})
	if got := tr.relation("a", "b"); got != Parallel {
		t.Errorf("relation after conflict = %v, want Parallel", got)
	}
}

func TestRelationStringAndInverse(t *testing.T) {
	if Parent.String() != "PARENT" || Before.String() != "BEFORE" || Parallel.String() != "PARALLEL" {
		t.Error("relation names wrong")
	}
	if Parent.Inverse() != Child || Before.Inverse() != After || Parallel.Inverse() != Parallel {
		t.Error("inverse wrong")
	}
	if Relation(99).String() != "REL(99)" {
		t.Error("out-of-range relation name")
	}
}

// ikey fabricates an Intel Key with just an ID and entities.
func ikey(id int, entities ...string) *extract.IntelKey {
	return &extract.IntelKey{ID: id, Entities: entities, NaturalLanguage: true}
}

// buildSession produces a canonical session: acl; memory open; task work
// (inside memory); memory close; shutdown.
func buildSession(taskID string) []*extract.Message {
	return []*extract.Message{
		msg(0, nil),                 // acl
		msg(1, nil),                 // memory started
		msg(3, id1("TASK", taskID)), // task start
		msg(4, id1("TASK", taskID)), // task finish
		msg(2, nil),                 // memory cleared
		msg(5, nil),                 // shutdown
	}
}

func testBuilder() *Builder {
	keys := []*extract.IntelKey{
		ikey(0, "acl"),
		ikey(1, "memory"),
		ikey(2, "memory store"),
		ikey(3, "task"),
		ikey(4, "task"),
		ikey(5, "shutdown"),
	}
	// Align message KeyIDs with builder: key 4 reuses entity task.
	b := NewBuilder(keys)
	return b
}

func TestBuilderHierarchy(t *testing.T) {
	b := testBuilder()
	b.AddSession(buildSession("t1"))
	b.AddSession(buildSession("t2"))
	g := b.Graph()

	if g.TotalSessions != 2 {
		t.Errorf("TotalSessions = %d", g.TotalSessions)
	}
	mem := g.Nodes["memory"]
	if mem == nil {
		t.Fatalf("no memory node; nodes = %v", nodeNames(g))
	}
	if !containsStr(mem.Children, "task") {
		t.Errorf("task should be child of memory; children = %v, roots = %v", mem.Children, g.Roots)
	}
	if !containsStr(g.Roots, "acl") || !containsStr(g.Roots, "shutdown") {
		t.Errorf("roots = %v, want acl and shutdown at top level", g.Roots)
	}
	if containsStr(g.Roots, "task") {
		t.Errorf("task must not be a root: %v", g.Roots)
	}
	if got := g.Relation("acl", "memory"); got != Before {
		t.Errorf("acl vs memory = %v, want BEFORE", got)
	}
	if !containsStr(g.Nodes["acl"].Next, "memory") {
		t.Errorf("acl.Next = %v, want memory", g.Nodes["acl"].Next)
	}
}

func TestBuilderCriticalGroups(t *testing.T) {
	b := testBuilder()
	b.AddSession(buildSession("t1"))
	g := b.Graph()
	if !g.Nodes["memory"].Critical {
		t.Error("memory group has two keys → critical")
	}
	if !g.Nodes["task"].Critical {
		t.Error("task group has two keys → critical")
	}
	if g.Nodes["acl"].Critical {
		t.Error("acl group: one key, one message → not critical")
	}
	crit := g.CriticalGroups()
	if !containsStr(crit, "memory") || containsStr(crit, "acl") {
		t.Errorf("CriticalGroups = %v", crit)
	}
}

func TestBuilderExpectedGroups(t *testing.T) {
	b := testBuilder()
	b.AddSession(buildSession("t1"))
	// Second session without shutdown messages.
	b.AddSession(buildSession("t2")[:5])
	g := b.Graph()
	exp := g.ExpectedGroups()
	if containsStr(exp, "shutdown") {
		t.Errorf("shutdown appeared in 1/2 sessions; expected = %v", exp)
	}
	if !containsStr(exp, "task") || !containsStr(exp, "memory") {
		t.Errorf("expected groups = %v, want task and memory", exp)
	}
}

func TestBuilderSubroutines(t *testing.T) {
	b := testBuilder()
	b.AddSession(buildSession("t1"))
	b.AddSession(buildSession("t2"))
	g := b.Graph()
	task := g.Nodes["task"]
	sub := task.Subroutines["TASK"]
	if sub == nil {
		t.Fatalf("no TASK subroutine; have %v", task.Subroutines)
	}
	if !reflect.DeepEqual(sub.Keys, []int{3, 4}) {
		t.Errorf("subroutine keys = %v, want [3 4]", sub.Keys)
	}
	if !sub.Critical[3] || !sub.Critical[4] {
		t.Errorf("both keys critical: %v", sub.Critical)
	}
	if !sub.Before[3][4] {
		t.Error("start before finish")
	}
	if sub.Instances != 2 {
		t.Errorf("Instances = %d, want 2", sub.Instances)
	}
}

func TestBuilderMiscGroup(t *testing.T) {
	keys := []*extract.IntelKey{ikey(0), ikey(1, "task")}
	b := NewBuilder(keys)
	b.AddSession([]*extract.Message{msg(0, nil), msg(1, id1("TASK", "t"))})
	g := b.Graph()
	if g.Nodes[MiscGroup] == nil {
		t.Fatalf("no misc group; nodes = %v", nodeNames(g))
	}
	if !reflect.DeepEqual(g.Nodes[MiscGroup].Keys, []int{0}) {
		t.Errorf("misc keys = %v", g.Nodes[MiscGroup].Keys)
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	b := testBuilder()
	b.AddSession(buildSession("t1"))
	g := b.Graph()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded struct {
		Nodes map[string]*Node `json:"nodes"`
		Roots []string         `json:"roots"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(decoded.Nodes) != len(g.Nodes) || len(decoded.Roots) != len(g.Roots) {
		t.Error("JSON round trip lost structure")
	}
}

func TestGraphRender(t *testing.T) {
	b := testBuilder()
	b.AddSession(buildSession("t1"))
	b.AddSession(buildSession("t2"))
	g := b.Graph()
	out := g.Render()
	if !strings.Contains(out, "memory") || !strings.Contains(out, "  task") {
		t.Errorf("Render output missing hierarchy:\n%s", out)
	}
}

func TestEmptySessionIgnored(t *testing.T) {
	b := testBuilder()
	b.AddSession(nil)
	if b.sessions != 0 {
		t.Error("empty session counted")
	}
}

func nodeNames(g *Graph) []string {
	var out []string
	for n := range g.Nodes {
		out = append(out, n)
	}
	return out
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestFoldSharesMessagesSafely: a message whose key belongs to several
// groups is read by several fold workers at once. Its identifier views
// are cached lazily, so AddSession must fill the caches before Graph
// folds in parallel; run under -race, a fold that filled them itself
// would race.
func TestFoldSharesMessagesSafely(t *testing.T) {
	b := NewBuilder([]*extract.IntelKey{
		ikey(0, "task", "executor"),
		ikey(1, "task", "executor", "shuffle"),
		ikey(2, "shuffle"),
	})
	if len(b.KeyGroups[1]) < 2 {
		t.Fatalf("key 1 belongs to %v, want several groups", b.KeyGroups[1])
	}
	const sessions = 2000
	for s := 0; s < sessions; s++ {
		id := strconv.Itoa(s)
		b.AddSession([]*extract.Message{
			msg(0, id1("TASK", id)),
			msg(1, map[string][]string{"TASK": {id}, "EXEC": {"e" + id}}),
			msg(2, id1("SHUF", id)),
		})
	}
	g := b.GraphFoldedIn(func([]int) {}, 4)
	if g.TotalSessions != sessions {
		t.Fatalf("TotalSessions = %d, want %d", g.TotalSessions, sessions)
	}
}
