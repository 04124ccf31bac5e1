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
