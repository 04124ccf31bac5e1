package detect

import (
	"fmt"
	"testing"

	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// hdfsRendering is an HDFS datanode line whose block ID, size and source
// change with i, so every i is a rendering never seen before.
func hdfsRendering(i int) string {
	return fmt.Sprintf("Received block blk_%d of size %d from /10.0.%d.%d:50010", 1000+i, 4096+i, i/250, i%250)
}

// TestColdMissAllocs: a new rendering of a matched natural-language key —
// 97 % of the HDFS workload's records — resolves through lookupRecordScr
// into one shared-cache entry, one L1 entry and the Algorithm-2 prototype,
// with no field maps and no token split left behind. Before prototypes
// replaced Bind on this path the same miss cost parentAllocs allocations
// (6 after); the bound is half of that.
func TestColdMissAllocs(t *testing.T) {
	const parentAllocs = 18
	parser := spell.NewParser(0)
	for i := 0; i < 4; i++ {
		parser.Consume(nlp.Texts(nlp.Tokenize(hdfsRendering(-100 * (i + 1)))))
	}
	keys := map[int]*extract.IntelKey{}
	var list []*extract.IntelKey
	for _, k := range parser.Keys() {
		keys[k.ID] = extract.BuildIntelKey(k)
		list = append(list, keys[k.ID])
	}
	b := hwgraph.NewBuilder(list)
	d := NewDetector(parser, keys, b.KeyGroups, b.Graph())

	const runs = 2000
	recs := make([]logging.Record, runs+1)
	for i := range recs {
		recs[i] = logging.Record{Message: hdfsRendering(i)}
	}
	scr := d.getScratch()
	defer d.putScratch(scr)
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		key, cl := d.lookupRecordScr(&recs[n], scr)
		if key == nil || cl.Proto == nil || len(cl.Proto.IdentifierSet()) == 0 {
			t.Fatalf("%q did not resolve to a prototype with identifiers", recs[n].Message)
		}
		n++
	})
	if allocs > parentAllocs/2 {
		t.Errorf("a cold miss allocates %.1f objects, want at most %d", allocs, parentAllocs/2)
	}
}
