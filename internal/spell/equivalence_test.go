package spell_test

// Equivalence suite: the indexed matcher must produce byte-identical
// output to the seed linear-scan matcher — same keys, same IDs, same
// wildcards, same counts, and the same per-message key assignment — on
// realistic simulated corpora and on adversarial random token streams.

import (
	"fmt"
	"math/rand"
	"testing"

	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/sim"
	"intellog/internal/spell"
	"intellog/internal/workload"
)

// assertSameKeys fails unless both parsers hold identical key sets.
func assertSameKeys(t *testing.T, indexed *spell.Parser, naive *spell.NaiveParser) {
	t.Helper()
	ik, nk := indexed.Keys(), naive.Keys()
	if len(ik) != len(nk) {
		t.Fatalf("key counts diverge: indexed=%d naive=%d", len(ik), len(nk))
	}
	for i := range ik {
		a, b := ik[i], nk[i]
		if a.ID != b.ID {
			t.Fatalf("key %d: ID %d vs %d", i, a.ID, b.ID)
		}
		if a.String() != b.String() {
			t.Fatalf("key %d: tokens %q vs %q", i, a.String(), b.String())
		}
		if a.Count != b.Count {
			t.Fatalf("key %d (%q): count %d vs %d", i, a.String(), a.Count, b.Count)
		}
		if fmt.Sprint(a.Sample) != fmt.Sprint(b.Sample) {
			t.Fatalf("key %d: sample %v vs %v", i, a.Sample, b.Sample)
		}
	}
}

// consumeBoth feeds one tokenized message to both parsers and fails on
// any divergence in the returned key.
func consumeBoth(t *testing.T, indexed *spell.Parser, naive *spell.NaiveParser, tokens []string) {
	t.Helper()
	// The parsers may rewrite token slices; give each its own copy.
	ki := indexed.Consume(append([]string(nil), tokens...))
	kn := naive.Consume(append([]string(nil), tokens...))
	switch {
	case ki == nil && kn == nil:
	case ki == nil || kn == nil:
		t.Fatalf("consume %v: indexed=%v naive=%v", tokens, ki, kn)
	case ki.ID != kn.ID:
		t.Fatalf("consume %v: key ID %d (%q) vs %d (%q)", tokens, ki.ID, ki, kn.ID, kn)
	}
}

func TestEquivalenceSimulatedCorpora(t *testing.T) {
	for _, fw := range []logging.Framework{logging.Spark, logging.MapReduce, logging.Tez} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s-seed%d", fw, seed), func(t *testing.T) {
				cluster := sim.NewCluster(8, seed)
				gen := workload.NewGenerator(cluster, seed+100)
				sessions := gen.TrainingCorpus(fw, 3)

				indexed := spell.NewParser(0)
				naive := spell.NewNaiveParser(0)
				var lookups [][]string
				for _, s := range sessions {
					for i := range s.Records {
						tokens := nlp.Texts(nlp.Tokenize(s.Records[i].Message))
						consumeBoth(t, indexed, naive, tokens)
						if i%7 == 0 {
							lookups = append(lookups, tokens)
						}
					}
				}
				assertSameKeys(t, indexed, naive)

				// Lookup equivalence on a sample of trained messages plus
				// perturbed variants that may or may not match.
				rng := rand.New(rand.NewSource(seed))
				for _, tokens := range lookups {
					li, ln := indexed.Lookup(tokens), naive.Lookup(tokens)
					if (li == nil) != (ln == nil) || (li != nil && li.ID != ln.ID) {
						t.Fatalf("lookup %v: indexed=%v naive=%v", tokens, li, ln)
					}
					mut := append([]string(nil), tokens...)
					mut[rng.Intn(len(mut))] = fmt.Sprintf("novel_%d", rng.Int63())
					li, ln = indexed.Lookup(mut), naive.Lookup(mut)
					if (li == nil) != (ln == nil) || (li != nil && li.ID != ln.ID) {
						t.Fatalf("perturbed lookup %v: indexed=%v naive=%v", mut, li, ln)
					}
				}
			})
		}
	}
}

// TestEquivalenceRandomStreams stresses the matchers with adversarial
// random streams: a small token alphabet mixing constant words, variable
// identifiers and literal wildcards forces dense LCS merging, repeated
// reindexing and wildcard-only keys.
func TestEquivalenceRandomStreams(t *testing.T) {
	words := []string{"starting", "finished", "task", "shuffle", "block", "manager", "worker", "lost", "read", "bytes"}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			indexed := spell.NewParser(0)
			naive := spell.NewNaiveParser(0)
			for n := 0; n < 600; n++ {
				l := 1 + rng.Intn(10)
				tokens := make([]string, l)
				for i := range tokens {
					switch rng.Intn(5) {
					case 0:
						tokens[i] = fmt.Sprintf("id_%d", rng.Intn(50))
					case 1:
						tokens[i] = fmt.Sprintf("%d", rng.Intn(100))
					case 2:
						tokens[i] = spell.Wildcard // literal "*" in a raw message
					default:
						tokens[i] = words[rng.Intn(len(words))]
					}
				}
				consumeBoth(t, indexed, naive, tokens)
			}
			assertSameKeys(t, indexed, naive)
		})
	}
}

// TestEquivalenceClassicMode covers the ablation path (no constant-word
// guard), which exercises merges the guarded matcher rejects.
func TestEquivalenceClassicMode(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rng := rand.New(rand.NewSource(42))
	indexed := spell.NewClassicParser(0)
	naive := spell.NewNaiveClassicParser(0)
	for n := 0; n < 500; n++ {
		l := 1 + rng.Intn(8)
		tokens := make([]string, l)
		for i := range tokens {
			if rng.Intn(3) == 0 {
				tokens[i] = fmt.Sprintf("v%d", rng.Intn(30))
			} else {
				tokens[i] = words[rng.Intn(len(words))]
			}
		}
		consumeBoth(t, indexed, naive, tokens)
	}
	assertSameKeys(t, indexed, naive)
}

// TestEquivalenceRestore proves a restored indexed parser matches a
// restored naive parser on both Lookup and further Consume calls.
func TestEquivalenceRestore(t *testing.T) {
	cluster := sim.NewCluster(8, 7)
	gen := workload.NewGenerator(cluster, 11)
	sessions := gen.TrainingCorpus(logging.Spark, 2)

	trained := spell.NewParser(0)
	var msgs [][]string
	for _, s := range sessions {
		for i := range s.Records {
			tokens := nlp.Texts(nlp.Tokenize(s.Records[i].Message))
			msgs = append(msgs, tokens)
			trained.Consume(append([]string(nil), tokens...))
		}
	}

	// Clone the trained keys so each restored parser owns its copies.
	clone := func() []*spell.Key {
		out := make([]*spell.Key, 0, len(trained.Keys()))
		for _, k := range trained.Keys() {
			out = append(out, &spell.Key{
				ID:     k.ID,
				Tokens: append([]string(nil), k.Tokens...),
				Sample: append([]string(nil), k.Sample...),
				Count:  k.Count,
			})
		}
		return out
	}
	indexed := spell.Restore(0, clone())
	naive := spell.RestoreNaiveParser(0, clone())

	for _, m := range msgs {
		li, ln := indexed.Lookup(m), naive.Lookup(m)
		if (li == nil) != (ln == nil) || (li != nil && li.ID != ln.ID) {
			t.Fatalf("restored lookup %v: indexed=%v naive=%v", m, li, ln)
		}
	}
	for _, m := range msgs {
		consumeBoth(t, indexed, naive, m)
	}
	assertSameKeys(t, indexed, naive)
}
