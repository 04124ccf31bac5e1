package conformance

import (
	"os"
	"path/filepath"
	"testing"

	"intellog/internal/core"
	"intellog/internal/corpus"
	"intellog/internal/logging"
)

// The LogHub-shaped loader corpora join the differential oracle: records
// parsed from real-world line layouts (through the zero-copy byte path)
// must flow through batch, parallel-batch, streaming and kill/resume
// detection identically, exactly like simulated corpora. Models are
// trained on the fixture's own sessions — the point is path equivalence
// over foreign-layout input, not accuracy.

func loadFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "corpus", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loaderCorpora are the oracle's LogHub-shaped corpora, by cell name.
var loaderCorpora = []struct {
	name string
	load func(t *testing.T) corpus.Corpus
}{
	{"loghub-hdfs", func(t *testing.T) corpus.Corpus {
		return corpus.LoadHDFS(loadFixture(t, "hdfs_sample.log"), loadFixture(t, "hdfs_labels.csv"))
	}},
	{"loghub-bgl", func(t *testing.T) corpus.Corpus {
		return corpus.LoadBGL(loadFixture(t, "bgl_sample.log"))
	}},
}

func TestLoaderCorporaOracle(t *testing.T) {
	for _, tc := range loaderCorpora {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := tc.load(t)
			if len(c.Records) == 0 {
				t.Fatal("loader produced no records")
			}
			m := core.Train(c.Sessions(), core.Config{})
			// The unsessionized remainder (namenode lines with no block ID)
			// rides along in the stream, like daemon chatter in production.
			checkOracle(t, tc.name, m, c.Records, 4242)
		})
	}
}

// TestLoaderTruthShape sanity-checks the loaded ground truth against the
// session view the detector scores — every labelled session must exist,
// so loader corpora can be accuracy-scored the way simulated ones are.
func TestLoaderTruthShape(t *testing.T) {
	hdfs := corpus.LoadHDFS(loadFixture(t, "hdfs_sample.log"), loadFixture(t, "hdfs_labels.csv"))
	ids := map[string]bool{}
	for _, s := range hdfs.Sessions() {
		if s.Framework != logging.HDFS {
			t.Fatalf("session %s framework = %q, want %q", s.ID, s.Framework, logging.HDFS)
		}
		ids[s.ID] = true
	}
	for blk := range hdfs.Truth {
		if !ids[blk] {
			t.Errorf("label sidecar names block %s with no records in the fixture", blk)
		}
	}

	bgl := corpus.LoadBGL(loadFixture(t, "bgl_sample.log"))
	anomalous := 0
	for _, bad := range bgl.Truth {
		if bad {
			anomalous++
		}
	}
	if anomalous == 0 {
		t.Fatal("BGL fixture carries no alert-labelled nodes; the labelled-corpus path is untested")
	}
}
