package spell_test

// Native fuzz target for the Spell matcher: whatever line stream the
// fuzzer invents, the indexed matcher must stay byte-equivalent to the
// seed linear-scan reference — same per-message key assignment, same key
// set, and agreeing lookups afterwards. This is the equivalence suite's
// contract (equivalence_test.go) driven by generated input instead of
// curated corpora. Run continuously with:
//
//	go test -run '^$' -fuzz FuzzSpellConsume ./internal/spell/

import (
	"fmt"
	"strings"
	"testing"

	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// FuzzLookupCache drives a small LookupCache (capacity 1–8, from the
// first byte) with a fuzzer-chosen sequence of GetAux, Peek and AddAux
// calls over twelve renderings, against a map holding each rendering's
// last AddAux. Eviction and the doorkeeper may drop any entry, so a miss
// is always allowed. What may never happen: a hit returning anything but
// the last AddAux's key and aux, a Peek whose canonical string is not the
// rendering, an AddAux below capacity that is not admitted, or Len past
// the capacity.
//
//	go test -run '^$' -fuzz FuzzLookupCache ./internal/spell/
func FuzzLookupCache(f *testing.F) {
	f.Add([]byte("\x02\x02\x06\x0a\x00\x0e\x0e\x05\x0d\x01"))
	f.Add([]byte("\x00\x02\x03\x00\x06\x06\x04\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]%8) + 1
		c := spell.NewLookupCache(capacity)
		keys := []*spell.Key{nil, {ID: 1}, {ID: 2}}
		type added struct {
			key *spell.Key
			aux any
		}
		last := map[string]added{}
		check := func(op, msg string, key *spell.Key, aux any) {
			want, ok := last[msg]
			if !ok {
				t.Fatalf("%s(%q) hit a rendering never added", op, msg)
			}
			if key != want.key || aux != want.aux {
				t.Fatalf("%s(%q) = (%v, %v), want the last AddAux's (%v, %v)", op, msg, key, aux, want.key, want.aux)
			}
		}
		for n, b := range data[1:] {
			msg := fmt.Sprintf("rendering %d", int(b>>2)%12)
			switch b & 3 {
			case 0:
				if key, aux, hit := c.GetAux(msg); hit {
					check("GetAux", msg, key, aux)
				}
			case 1:
				if canon, key, aux, hit := c.Peek([]byte(msg)); hit {
					if canon != msg {
						t.Fatalf("Peek(%q) returned canonical string %q", msg, canon)
					}
					check("Peek", msg, key, aux)
				}
			default:
				below := c.Len() < capacity
				key := keys[n%len(keys)]
				c.AddAux(msg, key, n)
				last[msg] = added{key, n}
				if _, key, aux, hit := c.Peek([]byte(msg)); hit {
					check("Peek after AddAux", msg, key, aux)
				} else if below {
					t.Fatalf("AddAux(%q) at Len %d < capacity %d was not admitted", msg, c.Len(), capacity)
				}
			}
			if l := c.Len(); l > capacity {
				t.Fatalf("Len = %d, capacity %d", l, capacity)
			}
		}
	})
}

func FuzzSpellConsume(f *testing.F) {
	f.Add([]byte("Registering worker node_01\nRegistered worker node_01\nbufstart=11 bufend=22"))
	f.Add([]byte("Starting task 1 in stage 4\nStarting task 2 in stage 4\nFinished task 1 in stage 4"))
	f.Add([]byte("lost block mgr_1\nlost block mgr_2\nlost worker mgr_2\n* * *\nlost"))
	f.Add([]byte("a\nab\nabc d\nabc e f\nabc e g"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := strings.Split(string(data), "\n")
		if len(lines) > 200 {
			lines = lines[:200]
		}
		indexed := spell.NewParser(0)
		naive := spell.NewNaiveParser(0)
		var trained [][]string
		for _, line := range lines {
			tokens := nlp.Texts(nlp.Tokenize(line))
			if len(tokens) == 0 {
				continue
			}
			if len(tokens) > 48 {
				tokens = tokens[:48]
			}
			ki := indexed.Consume(append([]string(nil), tokens...))
			kn := naive.Consume(append([]string(nil), tokens...))
			switch {
			case ki == nil && kn == nil:
			case ki == nil || kn == nil:
				t.Fatalf("consume %q: indexed=%v naive=%v", tokens, ki, kn)
			case ki.ID != kn.ID:
				t.Fatalf("consume %q: key ID %d (%q) vs %d (%q)", tokens, ki.ID, ki, kn.ID, kn)
			}
			trained = append(trained, tokens)
		}

		ik, nk := indexed.Keys(), naive.Keys()
		if len(ik) != len(nk) {
			t.Fatalf("key counts diverge: indexed=%d naive=%d", len(ik), len(nk))
		}
		for i := range ik {
			if ik[i].ID != nk[i].ID || ik[i].String() != nk[i].String() || ik[i].Count != nk[i].Count {
				t.Fatalf("key %d diverged: indexed %d %q (count %d) vs naive %d %q (count %d)",
					i, ik[i].ID, ik[i], ik[i].Count, nk[i].ID, nk[i], nk[i].Count)
			}
		}

		for _, tokens := range trained {
			li, ln := indexed.Lookup(tokens), naive.Lookup(tokens)
			if (li == nil) != (ln == nil) || (li != nil && li.ID != ln.ID) {
				t.Fatalf("lookup %q: indexed=%v naive=%v", tokens, li, ln)
			}
		}
	})
}
