package conformance

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"intellog/internal/logging"
)

// TestBytePathDifferential proves the zero-copy byte-slice front end is
// semantically invisible on every corpus of the matrix: render each
// session back to its raw on-disk line format, parse it through both
// ParseLines (string path) and ParseLinesBytes (the mmap'd batch path),
// and require (a) record-identical parses and (b) byte-identical
// canonical reports from batch detection over the two parses. Rendering
// round-trips the multi-line messages the line-fault corpora produce,
// so the continuation-line logic is exercised on both sides.
func TestBytePathDifferential(t *testing.T) {
	for _, spec := range DefaultMatrix() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			corpus := corpusFor(spec)
			f := logging.FormatterFor(spec.Framework)

			// Render per session, as the per-session .log files on disk
			// would hold the stream.
			var stringRecs, byteRecs []logging.Record
			for _, sess := range logging.GroupSessions(corpus.Records) {
				var sb strings.Builder
				for _, rec := range sess.Records {
					sb.WriteString(f.Render(rec))
					sb.WriteByte('\n')
				}
				text := sb.String()

				viaStrings := logging.ParseLines(f, strings.Split(text, "\n"))
				viaBytes := logging.ParseLinesBytes(f, []byte(text))
				if !reflect.DeepEqual(viaBytes, viaStrings) {
					t.Fatalf("session %s: byte parse diverges from string parse", sess.ID)
				}
				for i := range viaStrings {
					viaStrings[i].SessionID = sess.ID
					viaBytes[i].SessionID = sess.ID
				}
				stringRecs = append(stringRecs, viaStrings...)
				byteRecs = append(byteRecs, viaBytes...)
			}

			d := ModelFor(spec.Framework).Detector()
			want, err := Canonicalize(BatchPath(d, stringRecs))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Canonicalize(BatchPath(d, byteRecs))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("byte-path report diverges from string-path report\nstring:\n%s\nbytes:\n%s", want, got)
			}
		})
	}
}
