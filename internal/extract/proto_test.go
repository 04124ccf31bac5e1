package extract_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/extract"
	"intellog/internal/nlp"
)

// algorithm2Diff names the first thing Algorithm 2 and HW-graph modeling
// read on which a BindProto prototype and a Bind of the same tokens
// disagree — key ID, raw text, identifier multiset, distinct values with
// hashes and counts, type set, signature — or returns "".
func algorithm2Diff(key *extract.IntelKey, toks []nlp.Token, raw string) string {
	proto := extract.BindProto(key, toks, raw)
	full := extract.Bind(key, toks, time.Time{}, "", raw)
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"KeyID", proto.KeyID, full.KeyID},
		{"Raw", proto.Raw, full.Raw},
		{"IdentifierSet", proto.IdentifierSet(), full.IdentifierSet()},
		{"IdentifierValues", proto.IdentifierValues(), full.IdentifierValues()},
		{"IdentifierTypes", proto.IdentifierTypes(), full.IdentifierTypes()},
		{"TypeSignature", proto.TypeSignature(), full.TypeSignature()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Sprintf("%s: prototype %#v, Bind %#v", c.what, c.got, c.want)
		}
	}
	return ""
}

// TestProtoMatchesBindOnCorpora: every distinct rendering of every
// corpus of the conformance matrix that matches an Intel Key (natural
// language or not) yields a prototype equal to Bind on everything
// Algorithm 2 reads.
func TestProtoMatchesBindOnCorpora(t *testing.T) {
	for _, spec := range conformance.DefaultMatrix() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := conformance.ModelFor(spec.Framework)
			seen := map[string]bool{}
			checked := 0
			for _, rec := range spec.Generate().Records {
				if seen[rec.Message] {
					continue
				}
				seen[rec.Message] = true
				toks := nlp.Tokenize(rec.Message)
				k := m.Parser.Lookup(nlp.Texts(toks))
				if k == nil || m.Keys[k.ID] == nil {
					continue
				}
				if diff := algorithm2Diff(m.Keys[k.ID], toks, rec.Message); diff != "" {
					t.Fatalf("%q under key %q: %s", rec.Message, m.Keys[k.ID], diff)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no rendering matched an Intel Key")
			}
		})
	}
}

// TestProtoEdgeCases covers key shapes the corpora may not: no
// identifier slot, an untyped slot (Bind files it under "ID"), a value
// repeated across slots, and a rendering shorter than its key, where
// Bind drops the slots past the end.
func TestProtoEdgeCases(t *testing.T) {
	id := func(pos int, typ string) extract.Slot {
		return extract.Slot{Pos: pos, Kind: extract.SlotIdentifier, Type: typ}
	}
	cases := []struct {
		name  string
		slots []extract.Slot
		raw   string
		sig   string
	}{
		{"no slots", nil, "Starting the shuffle", ""},
		{"value and locality only", []extract.Slot{{Pos: 1, Kind: extract.SlotValue, Type: "ms"}, {Pos: 3, Kind: extract.SlotLocality, Type: "ADDR"}},
			"took 12 ms host1:80", ""},
		{"untyped slot", []extract.Slot{id(1, ""), id(3, "TASK")}, "block blk_7 task task_3", "ID+TASK"},
		{"repeated values", []extract.Slot{id(0, "TASK"), id(2, "TASK"), id(4, "ATTEMPT")},
			"task_1 retries task_1 as task_1", "ATTEMPT+TASK"},
		{"slot past the end", []extract.Slot{id(1, "TASK"), id(5, "ATTEMPT")}, "task task_9 done", "TASK"},
		{"every slot past the end", []extract.Slot{id(4, "TASK")}, "task done", ""},
	}
	for _, c := range cases {
		key := &extract.IntelKey{ID: 7, Slots: c.slots}
		toks := nlp.Tokenize(c.raw)
		if diff := algorithm2Diff(key, toks, c.raw); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
		if got := extract.BindProto(key, toks, c.raw).TypeSignature(); got != c.sig {
			t.Errorf("%s: signature %q, want %q", c.name, got, c.sig)
		}
	}
}

// TestProtoSharesKeyTypes: prototypes of one key share its type set, so
// the sort and join run once per key rather than once per rendering, and
// carry none of the field maps. The prototypes are bound from several
// goroutines at once, so the key compiles concurrently on first use.
func TestProtoSharesKeyTypes(t *testing.T) {
	key := &extract.IntelKey{ID: 3, Slots: []extract.Slot{{Pos: 1, Kind: extract.SlotIdentifier, Type: "TASK"}, {Pos: 2, Kind: extract.SlotValue}}}
	protos := make([]*extract.Message, 8)
	var wg sync.WaitGroup
	for i := range protos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := fmt.Sprintf("task task_%d %d", i, 10*i)
			protos[i] = extract.BindProto(key, nlp.Tokenize(raw), raw)
		}(i)
	}
	wg.Wait()
	for i, p := range protos {
		if &p.IdentifierTypes()[0] != &protos[0].IdentifierTypes()[0] {
			t.Errorf("prototype %d holds its own type set", i)
		}
		if p.Identifiers != nil || p.Values != nil || p.Localities != nil || p.Entities != nil {
			t.Errorf("prototype %d built field maps: %+v", i, p)
		}
	}
}
