package hwgraph

import (
	"sort"
	"strings"
	"testing"

	"intellog/internal/extract"
)

func exportFixture() *Graph {
	return &Graph{
		Nodes: map[string]*Node{
			"executor": {Name: "executor", Keys: []int{1, 2}, Critical: true,
				Subroutines: map[string]*Subroutine{"sig": nil},
				Children:    []string{"task"}, Sessions: 3},
			"task": {Name: "task", Keys: []int{3}, Next: []string{"shuffle"}, Sessions: 3},
			"shuffle": {Name: "shuffle", Keys: []int{4}, Sessions: 2,
				Entities: []string{`say "hi"`}},
		},
		Roots:         []string{"executor"},
		TotalSessions: 3,
	}
}

func TestDOTExport(t *testing.T) {
	g := exportFixture()
	dot := g.DOT()

	for _, want := range []string{
		"digraph hwgraph {",
		`"executor" -> "task";`,
		`"task" -> "shuffle" [style=dashed, label="before"];`,
		"peripheries=2", // critical double border
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if !strings.HasSuffix(dot, "}\n") {
		t.Errorf("DOT output not closed:\n%s", dot)
	}
	// Determinism: repeated renders are byte-identical despite map-backed
	// node storage.
	if again := g.DOT(); again != dot {
		t.Error("DOT output differs across renders")
	}
}

func TestDOTQuoteEscapes(t *testing.T) {
	got := dotQuote("a\"b\\c\nd")
	want := `"a\"b\\c\nd"`
	if got != want {
		t.Errorf("dotQuote = %s, want %s", got, want)
	}
}

// GraphFoldedIn is Graph with the fold schedule chosen by the caller:
// reorder permutes the groups with pending runs (largest first, as Graph
// takes them), and workers goroutines fold them.
func (b *Builder) GraphFoldedIn(reorder func(groups []int), workers int) *Graph {
	order := b.foldOrder()
	reorder(order)
	b.fold(order, workers)
	return b.assembleGraph()
}

// AddSessionFolded is AddSession followed by an immediate fold of the
// session's runs, group by group in ascending id order on the calling
// goroutine: the session-at-a-time sequential fold.
func (b *Builder) AddSessionFolded(msgs []*extract.Message) {
	b.AddSession(msgs)
	order := b.foldOrder()
	sort.Ints(order)
	b.fold(order, 1)
}
