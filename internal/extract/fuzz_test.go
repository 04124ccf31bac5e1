package extract_test

// Native fuzz target for the §3 extraction pipeline on arbitrary
// messages: Tokenize → ad-hoc Intel Key (the detector's
// unexpected-message path) → Bind. Whatever the fuzzer feeds it, the
// pipeline must not panic, must be deterministic (two extractions of the
// same message encode identically), must keep the Message's basic
// invariants, and BindProto must agree with Bind on the ad-hoc key. Run
// continuously with:
//
//	go test -run '^$' -fuzz FuzzExtract ./internal/extract/

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"intellog/internal/extract"
	"intellog/internal/nlp"
	"intellog/internal/spell"
)

func FuzzExtract(f *testing.F) {
	f.Add("Registering block manager 10.0.0.1:3801 with 366 MB RAM")
	f.Add("Starting fetcher#3 for map_42 to host7:13562")
	f.Add("bufstart=11 bufend=22 kvstart=786428")
	f.Add("lost executor 7 on host3: container killed")
	f.Add("=== ***  %%% \x00\xff")
	f.Fuzz(func(t *testing.T, msg string) {
		if len(msg) > 4096 {
			msg = msg[:4096] // bound tagger/DP cost per iteration
		}
		at := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
		extractOnce := func() ([]byte, *extract.Message) {
			tokens := nlp.Tokenize(msg)
			adhoc := &spell.Key{ID: -1, Tokens: nlp.Texts(tokens), Sample: nlp.Texts(tokens)}
			ik := extract.BuildIntelKey(adhoc)
			m := extract.Bind(ik, tokens, at, "fuzz-session", msg)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatalf("marshal message for %q: %v", msg, err)
			}
			return raw, m
		}
		raw1, m1 := extractOnce()
		raw2, _ := extractOnce()
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("extraction of %q not deterministic:\n%s\n%s", msg, raw1, raw2)
		}
		if m1.KeyID != -1 {
			t.Fatalf("ad-hoc message KeyID = %d, want -1", m1.KeyID)
		}
		if m1.Session != "fuzz-session" || !m1.Time.Equal(at) {
			t.Fatalf("binding lost session/time: %+v", m1)
		}
		tokens := nlp.Tokenize(msg)
		n := 0
		for _, vals := range m1.Identifiers {
			n += len(vals)
		}
		if n > len(tokens) {
			t.Fatalf("%d identifier values bound from %d tokens: %v", n, len(tokens), m1.Identifiers)
		}
		// The Algorithm-2 prototype of the same key and tokens must agree
		// with Bind on everything detection reads.
		adhoc := &spell.Key{ID: -1, Tokens: nlp.Texts(tokens), Sample: nlp.Texts(tokens)}
		if diff := algorithm2Diff(extract.BuildIntelKey(adhoc), tokens, msg); diff != "" {
			t.Fatalf("prototype of %q: %s", msg, diff)
		}
	})
}
