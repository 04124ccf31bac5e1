package hwgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"intellog/internal/extract"
)

// refInstance is one instance of the reference Algorithm 2 below.
type refInstance struct {
	ids   map[string]bool
	types map[string]bool
	msgs  []*extract.Message
}

// refAssign is Algorithm 2 as the paper states it: string sets in maps,
// an in-order scan over every instance per message. It is the seed
// implementation of AssignInstances, kept as the oracle for the
// hash-table Assigner.
func refAssign(msgs []*extract.Message) []*refInstance {
	none := &refInstance{}
	instances := []*refInstance{none}
	for _, m := range msgs {
		set := m.IdentifierSet()
		if len(set) == 0 {
			none.msgs = append(none.msgs, m)
			continue
		}
		var target *refInstance
		for _, in := range instances[1:] {
			inIDs := 0
			for _, v := range set { // multiset: a repeated value counts twice
				if in.ids[v] {
					inIDs++
				}
			}
			if inIDs == len(set) || inIDs == len(in.ids) {
				target = in
				break
			}
		}
		if target == nil {
			target = &refInstance{ids: map[string]bool{}, types: map[string]bool{}}
			instances = append(instances, target)
		}
		for _, v := range set {
			target.ids[v] = true
		}
		for t := range m.Identifiers {
			target.types[t] = true
		}
		target.msgs = append(target.msgs, m)
	}
	if len(none.msgs) == 0 {
		instances = instances[1:]
	}
	return instances
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// randomRun builds one Algorithm 2 input of up to size prototypes over a
// value universe small enough that subsets, supersets, repeated values
// inside one message and back-to-back repeats of one prototype all occur.
func randomRun(rng *rand.Rand, size, universe int) []*extract.Message {
	types := []string{"TASK", "STAGE", "FETCHER"}
	protos := make([]*extract.Message, 1+rng.Intn(size))
	for i := range protos {
		ids := map[string][]string{}
		for n := rng.Intn(5); n > 0; n-- {
			typ := types[rng.Intn(len(types))]
			v := fmt.Sprintf("v%d", rng.Intn(universe))
			ids[typ] = append(ids[typ], v)
			if rng.Intn(6) == 0 {
				ids[typ] = append(ids[typ], v) // the same value twice
			}
		}
		protos[i] = &extract.Message{KeyID: i, Identifiers: ids}
	}
	msgs := make([]*extract.Message, 1+rng.Intn(3*size))
	for i := range msgs {
		if i > 0 && rng.Intn(4) == 0 {
			msgs[i] = msgs[i-1]
		} else {
			msgs[i] = protos[rng.Intn(len(protos))]
		}
	}
	return msgs
}

// TestAssignMatchesReference checks the Assigner against refAssign on
// random runs: same partition, same instance order, same IDValues and
// signature. One Assigner serves every run of a configuration, so stale
// table slots from earlier runs are in play. The colliding configurations
// clear hash bits so that distinct values share a hash (all of them, with
// every bit dropped): only the string confirmation keeps them apart.
func TestAssignMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name         string
		dropHashBits uint64
		size         int
		universe     int
		grows        bool // runs are wide enough to outgrow the first table
	}{
		{"full hashes", 0, 12, 6, false},
		{"two hashes", ^uint64(1), 12, 6, false},
		{"one hash", ^uint64(0), 12, 6, false},
		{"wide runs", 0, 80, 400, true},
		{"wide runs, one hash", ^uint64(0), 80, 150, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			a := &Assigner{dropHashBits: tc.dropHashBits}
			for run := 0; run < 300; run++ {
				msgs := randomRun(rng, tc.size, tc.universe)
				got, want := a.Assign(msgs), refAssign(msgs)
				if len(got) != len(want) {
					t.Fatalf("run %d: %d instances, reference has %d", run, len(got), len(want))
				}
				for i, in := range got {
					ref := want[i]
					if !reflect.DeepEqual(in.Msgs, ref.msgs) {
						t.Fatalf("run %d instance %d: messages differ from reference", run, i)
					}
					if gv, wv := in.IDValues(), sortedKeys(ref.ids); !reflect.DeepEqual(gv, wv) {
						t.Fatalf("run %d instance %d: IDValues %v, reference %v", run, i, gv, wv)
					}
					wantSig := ""
					for j, typ := range sortedKeys(ref.types) {
						if j > 0 {
							wantSig += "+"
						}
						wantSig += typ
					}
					if in.Signature() != wantSig {
						t.Fatalf("run %d instance %d: signature %q, reference %q", run, i, in.Signature(), wantSig)
					}
				}
			}
			if grew := len(a.table) > 64; grew != tc.grows {
				t.Errorf("table has %d slots; grown = %v, want %v", len(a.table), grew, tc.grows)
			}
		})
	}
}

// TestAssignerSizedByRunNotStream drives one Assigner through 200k
// values that never repeat, four to a run. Its tables must end up sized
// for a four-value run, not for the values the stream has carried.
func TestAssignerSizedByRunNotStream(t *testing.T) {
	var a Assigner
	n := 0
	for run := 0; run < 50_000; run++ {
		msgs := make([]*extract.Message, 4)
		for i := range msgs {
			msgs[i] = msg(i, id1("TASK", fmt.Sprintf("task_%d", n)))
			n++
		}
		if got := a.Assign(msgs); len(got) != 4 {
			t.Fatalf("run %d: %d instances, want 4", run, len(got))
		}
	}
	for name, c := range map[string]int{
		"table": cap(a.table), "vals": cap(a.vals), "byValue": cap(a.byValue),
		"instances": cap(a.instances), "free": cap(a.free),
	} {
		if c > 64 {
			t.Errorf("cap(%s) = %d after %d distinct values in 4-value runs", name, c, n)
		}
	}
}

// TestAssignerRunStampWrap: when the run stamp wraps, slots written 2^32
// runs earlier must not read as live.
func TestAssignerRunStampWrap(t *testing.T) {
	var a Assigner
	first := []*extract.Message{msg(0, id1("TASK", "a")), msg(1, id1("TASK", "b"))}
	a.Assign(first) // runID 1 writes two slots
	a.runID = ^uint32(0)
	got := a.Assign([]*extract.Message{msg(0, id1("TASK", "b")), msg(1, id1("TASK", "a"))})
	if len(got) != 2 || got[0].IDValues()[0] != "b" || got[1].IDValues()[0] != "a" {
		t.Fatalf("after wrap: %d instances, first values %v", len(got), got[0].IDValues())
	}
	if a.runID != 1 {
		t.Fatalf("runID = %d after wrap, want 1", a.runID)
	}
}
