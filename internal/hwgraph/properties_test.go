package hwgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"intellog/internal/extract"
)

// TestPropertySubroutineInvariants feeds random instance sequences and
// checks structural invariants of the trained subroutine.
func TestPropertySubroutineInvariants(t *testing.T) {
	f := func(seed int64, nInstances uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSubroutine("X")
		n := int(nInstances%8) + 1
		universe := 6
		present := make([]map[int]bool, 0, n)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(8)
			seq := make([]int, l)
			p := map[int]bool{}
			for j := range seq {
				seq[j] = rng.Intn(universe)
				p[seq[j]] = true
			}
			s.Update(seq)
			present = append(present, p)
		}
		known := map[int]bool{}
		for _, k := range s.Keys {
			known[k] = true
		}
		for k, crit := range s.Critical {
			// Critical keys are known keys.
			if crit && !known[k] {
				return false
			}
			// A critical key appeared in every instance.
			if crit {
				for _, p := range present {
					if !p[k] {
						return false
					}
				}
			}
		}
		// Before is antisymmetric.
		for a, succ := range s.Before {
			for b := range succ {
				if s.Before[b][a] {
					return false
				}
			}
		}
		// Instances counted.
		return s.Instances == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertySubroutineNoViolationOnTrainedOrder: replaying any sequence
// consistent with every training sequence yields no violations of the
// final model when training repeated one fixed order.
func TestPropertySubroutineNoViolationOnTrainedOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 2 + rng.Intn(6)
		seq := rng.Perm(l)
		s := NewSubroutine("X")
		for i := 0; i < 3; i++ {
			s.Update(seq)
		}
		return len(s.Violations(seq)) == 0 && len(s.MissingCritical(seq)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAssignInstancesPartition: every input message lands in
// exactly one instance, and instance order preserves message order. One
// Assigner serves every check, as it serves every run of a worker.
func TestPropertyAssignInstancesPartition(t *testing.T) {
	var a Assigner
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%24) + 1
		msgs := make([]*extract.Proto, count)
		for i := range msgs {
			ids := map[string][]string{}
			if rng.Intn(3) > 0 {
				typ := []string{"TASK", "STAGE", "FETCHER"}[rng.Intn(3)]
				ids[typ] = []string{[]string{"a", "b", "c", "d"}[rng.Intn(4)]}
			}
			msgs[i] = msg(rng.Intn(5), ids)
		}
		instances := a.Assign(msgs)
		total := 0
		seen := map[*extract.Proto]bool{}
		for _, in := range instances {
			prevIdx := -1
			for _, m := range in.Msgs {
				if seen[m] {
					return false // message in two instances
				}
				seen[m] = true
				total++
				// Order preserved: find index in msgs.
				idx := indexOfMsg(msgs, m)
				if idx <= prevIdx {
					return false
				}
				prevIdx = idx
			}
		}
		return total == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func indexOfMsg(msgs []*extract.Proto, m *extract.Proto) int {
	for i, x := range msgs {
		if x == m {
			return i
		}
	}
	return -1
}

// TestPropertySpanRelationInverse: the relation of a towards b is always
// the inverse of b towards a.
func TestPropertySpanRelationInverse(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		a := Span{First: int(a1 % 32), Last: int(a1%32) + int(a2%32)}
		b := Span{First: int(b1 % 32), Last: int(b1%32) + int(b2%32)}
		return spanRelation(a, b) == spanRelation(b, a).Inverse()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyGraphPlacement: every group is placed exactly once (either
// a root or exactly one parent's child).
func TestPropertyGraphPlacement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := []*extract.IntelKey{
			ikey(0, "alpha"), ikey(1, "beta"), ikey(2, "gamma"), ikey(3, "delta"),
		}
		b := NewBuilder(keys)
		for s := 0; s < 4; s++ {
			var msgs []*extract.Proto
			for i := 0; i < 8; i++ {
				msgs = append(msgs, msg(rng.Intn(4), nil))
			}
			b.AddSession(msgs)
		}
		g := b.Graph()
		placed := map[string]int{}
		for _, r := range g.Roots {
			placed[r]++
		}
		for _, n := range g.Nodes {
			for _, c := range n.Children {
				placed[c]++
			}
		}
		for name := range g.Nodes {
			if placed[name] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
