package hwgraph_test

import (
	"fmt"

	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/nlp"
)

// A minimal two-session training run: the task group's lifespan nests
// inside the memory group's in both sessions, so the HW-graph places it
// as a child (Fig. 6/7).
func ExampleBuilder() {
	taskID := []extract.Slot{{Pos: 1, Kind: extract.SlotIdentifier, Type: "TASK"}}
	keys := []*extract.IntelKey{
		{ID: 0, Entities: []string{"memory"}, NaturalLanguage: true},
		{ID: 1, Entities: []string{"task"}, Slots: taskID, NaturalLanguage: true},
		{ID: 2, Entities: []string{"task"}, Slots: taskID, NaturalLanguage: true},
		{ID: 3, Entities: []string{"memory"}, NaturalLanguage: true},
	}
	b := hwgraph.NewBuilder(keys)
	bind := func(key int, raw string) *extract.Proto {
		return extract.BindProto(keys[key], nlp.Tokenize(raw), raw)
	}
	session := func(task string) []*extract.Proto {
		return []*extract.Proto{
			bind(0, "memory started"),
			bind(1, "task "+task+" started"),
			bind(2, "task "+task+" finished"),
			bind(3, "memory cleared"),
		}
	}
	b.AddSession(session("t1"))
	b.AddSession(session("t2"))
	g := b.Graph()
	fmt.Println(g.Relation("memory", "task"))
	fmt.Print(g.Render())
	// Output:
	// PARENT
	// memory *
	//   task *
}

// Subroutines learn order and criticality from instances (Fig. 5).
func ExampleSubroutine_Update() {
	s := hwgraph.NewSubroutine("TASK")
	s.Update([]int{1, 2, 3})
	s.Update([]int{1, 3, 2}) // 2 and 3 swap: they become parallel
	s.Update([]int{1, 2})    // 3 absent: no longer critical
	fmt.Println("keys:", s.Keys)
	fmt.Println("critical 1:", s.Critical[1], " 3:", s.Critical[3])
	fmt.Println("1 before 2:", s.Before[1][2], " 2 before 3:", s.Before[2][3])
	// Output:
	// keys: [1 2 3]
	// critical 1: true  3: false
	// 1 before 2: true  2 before 3: false
}
