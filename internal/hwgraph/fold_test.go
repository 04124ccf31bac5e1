package hwgraph_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"sort"
	"testing"

	"intellog/internal/conformance"
	"intellog/internal/core"
	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
)

// foldCorpus binds a framework's reference training corpus with its
// trained model: the Intel Keys in ID order and each session's
// prototypes, one per matched natural-language record and one shared
// prototype per distinct rendering, as training folds them.
func foldCorpus(t *testing.T, fw logging.Framework) ([]*extract.IntelKey, [][]*extract.Proto) {
	t.Helper()
	sessions := conformance.TrainingSessions(fw)
	m := core.Train(sessions, core.Config{})
	keys := make([]*extract.IntelKey, 0, len(m.Keys))
	for _, k := range m.Keys {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].ID < keys[j].ID })
	memo := map[string]*extract.Proto{}
	var msgs [][]*extract.Proto
	for _, s := range sessions {
		var run []*extract.Proto
		for _, rec := range s.Records {
			p, ok := memo[rec.Message]
			if !ok {
				toks := nlp.Tokenize(rec.Message)
				if k := m.Parser.Lookup(nlp.Texts(toks)); k != nil {
					if ik := m.Keys[k.ID]; ik != nil && ik.NaturalLanguage {
						p = extract.BindProto(ik, toks, rec.Message)
					}
				}
				memo[rec.Message] = p
			}
			if p != nil {
				run = append(run, p)
			}
		}
		msgs = append(msgs, run)
	}
	return keys, msgs
}

func graphBytes(t *testing.T, g *hwgraph.Graph) []byte {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// foldFrameworks are the matrix frameworks the fold tests train on.
var foldFrameworks = []logging.Framework{logging.Spark, logging.HDFS, logging.Tez}

// TestFoldOrderIndependent: Graph folds the entity groups' pending runs
// in parallel. Whatever order the groups are taken in and however many
// workers take them, the graph saves the same bytes as the sequential
// reference, which folds every session into every group it touches
// before the next session is added.
func TestFoldOrderIndependent(t *testing.T) {
	orders := []struct {
		name    string
		reorder func([]int)
	}{
		{"largest-first", func([]int) {}},
		{"ascending", func(g []int) { sort.Ints(g) }},
		{"descending", func(g []int) { sort.Sort(sort.Reverse(sort.IntSlice(g))) }},
		{"shuffled", func(g []int) {
			r := rand.New(rand.NewPCG(45, 1))
			r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		}},
	}
	for _, fw := range foldFrameworks {
		t.Run(string(fw), func(t *testing.T) {
			keys, sessions := foldCorpus(t, fw)
			ref := hwgraph.NewBuilder(keys)
			for _, msgs := range sessions {
				ref.AddSessionFolded(msgs)
			}
			want := graphBytes(t, ref.Graph()) // nothing left to fold
			for _, o := range orders {
				for _, workers := range []int{1, 4} {
					b := hwgraph.NewBuilder(keys)
					for _, msgs := range sessions {
						b.AddSession(msgs)
					}
					if got := graphBytes(t, b.GraphFoldedIn(o.reorder, workers)); !bytes.Equal(got, want) {
						t.Errorf("%s order, %d workers: graph differs from the sequential fold", o.name, workers)
					}
				}
			}
		})
	}
}

// TestGraphThenMoreSessions: sessions added after a Graph call are
// folded by the next one, whose graph equals a build over every session
// at once.
func TestGraphThenMoreSessions(t *testing.T) {
	for _, fw := range foldFrameworks {
		t.Run(string(fw), func(t *testing.T) {
			keys, sessions := foldCorpus(t, fw)
			all := hwgraph.NewBuilder(keys)
			for _, msgs := range sessions {
				all.AddSession(msgs)
			}
			want := graphBytes(t, all.Graph())

			b := hwgraph.NewBuilder(keys)
			half := len(sessions) / 2
			for _, msgs := range sessions[:half] {
				b.AddSession(msgs)
			}
			first := graphBytes(t, b.Graph())
			for _, msgs := range sessions[half:] {
				b.AddSession(msgs)
			}
			if got := graphBytes(t, b.Graph()); !bytes.Equal(got, want) {
				t.Error("Graph, more sessions, Graph: differs from one build over every session")
			}
			if bytes.Equal(first, want) {
				t.Error("the first half's graph already equals the whole corpus's: the check cannot see a lost fold")
			}
		})
	}
}
