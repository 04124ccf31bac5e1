package conformance

import (
	"bytes"
	"encoding/json"
	"testing"

	"intellog/internal/detect"
	"intellog/internal/extract"
	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// TestUnexpectedExtractionMatchesBind is a second voice beside the
// oracle, whose legs all share the detector's memoized extraction: every
// unexpected-message anomaly of every oracle corpus must marshal
// byte-identically to a fresh extract.Bind of the rendering's ad-hoc
// Intel Key, with the record's tokens, time, session and text.
func TestUnexpectedExtractionMatchesBind(t *testing.T) {
	reps := oracleBatchReports(t)
	checked := 0
	for name, rep := range reps {
		for _, a := range rep.Anomalies {
			if a.Kind != detect.UnexpectedMessage {
				continue
			}
			checked++
			rec := a.Record
			toks := nlp.Tokenize(rec.Message)
			texts := nlp.Texts(toks)
			key := extract.BuildIntelKey(&spell.Key{ID: -1, Tokens: texts, Sample: texts})
			want, err := json.Marshal(extract.Bind(key, toks, rec.Time, a.Session, rec.Message))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(a.Extracted)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: session %s, %q:\n  got:  %s\n  want: %s", name, a.Session, rec.Message, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no unexpected-message anomaly in any corpus")
	}
}

// TestStripRenderMatchesEmission is the serving anomaly log's contract:
// an unexpected-message anomaly the stream detector emits, stripped to
// its record and rendered back, marshals to the emitted bytes on every
// matrix corpus. It renders twice, once through the emitting detector,
// whose cache holds the rendering's memo, and once through a fresh
// detector over the same model with an empty cache, which builds the
// extraction anew. Neither render may touch a cache: the emitting one's
// hit/miss counts do not move and the fresh one stays empty.
func TestStripRenderMatchesEmission(t *testing.T) {
	rendered := 0
	for _, sp := range DefaultMatrix() {
		m := ModelFor(sp.Framework)
		d := m.Detector()
		d.Cache = spell.NewLookupCache(0)
		rep := StreamPath(d, corpusFor(sp).Records)
		fresh := m.Detector()
		fresh.Cache = spell.NewLookupCache(0)
		hits, misses := d.Cache.Stats()
		for _, a := range rep.Anomalies {
			want, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				cache string
				d     *detect.Detector
			}{{"emitting", d}, {"empty", fresh}} {
				got := a
				if !detect.Strip(&got) {
					if a.Kind == detect.UnexpectedMessage && a.Record != nil {
						t.Fatalf("%s: Strip kept %q whole", sp.Name, a.Record.Message)
					}
				} else if got.Extracted != nil || got.Detail != "" {
					t.Fatalf("%s: stripped anomaly still holds Extracted or Detail: %+v", sp.Name, got)
				}
				r.d.Render(&got)
				b, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, want) {
					t.Errorf("%s: session %s, rendered with the %s cache:\n  got:  %s\n  want: %s",
						sp.Name, a.Session, r.cache, b, want)
				}
			}
			if a.Kind == detect.UnexpectedMessage {
				rendered++
			}
		}
		if h, mi := d.Cache.Stats(); h != hits || mi != misses {
			t.Errorf("%s: renders moved the cache's counts: hits %d → %d, misses %d → %d", sp.Name, hits, h, misses, mi)
		}
		if n := fresh.Cache.Len(); n != 0 {
			t.Errorf("%s: renders published %d memos into an empty cache", sp.Name, n)
		}
	}
	if rendered == 0 {
		t.Fatal("no unexpected-message anomaly in any corpus")
	}
	t.Logf("%d unexpected-message anomalies rendered", rendered)
}
