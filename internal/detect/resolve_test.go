package detect

import (
	"fmt"
	"testing"
	"time"

	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/spell"
	"intellog/internal/wal"
)

// hdfsRendering is an HDFS datanode line whose block ID, size and source
// change with i, so every i is a rendering never seen before.
func hdfsRendering(i int) string {
	return fmt.Sprintf("Received block blk_%d of size %d from /10.0.%d.%d:50010", 1000+i, 4096+i, i/250, i%250)
}

// TestColdMissAllocs: a new rendering of a matched natural-language key —
// 97 % of the HDFS workload's records — resolves through lookupRecord
// into one cache slot and the Algorithm-2 prototype, with no field maps
// and no token split left behind: the CachedLookup, the prototype and its
// two identifier slices, 4 allocations. The cache's slot slice and map
// grow geometrically, so they add a fraction of one per miss; an entry
// object of its own (the old LRU's node and list element) would not fit
// under the bound.
func TestColdMissAllocs(t *testing.T) {
	const bound = 5
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
		key, cl := d.lookupRecord(&recs[n], scr)
		if key == nil || cl.Proto == nil || len(cl.Proto.IdentifierSet()) == 0 {
			t.Fatalf("%q did not resolve to a prototype with identifiers", recs[n].Message)
		}
		n++
	})
	t.Logf("a cold miss allocates %.1f objects", allocs)
	if allocs > bound {
		t.Errorf("a cold miss allocates %.1f objects, want at most %d", allocs, bound)
	}
}

// TestConsumeBatchCountsEveryLookup: the resolve stage probes the lookup
// cache exactly once per record, so its hit and miss counters (what
// spell.cache_hit_share is computed from) add up to the records consumed
// at any worker count — through ConsumeBatch, and through ConsumeEncoded,
// the entry point of both served wires (ILS1 and NDJSON batches reach the
// worker as the same encoding) and of WAL replay. With one worker every
// distinct rendering misses exactly once.
func TestConsumeBatchCountsEveryLookup(t *testing.T) {
	renderings := []string{
		"Registering worker node_07", "Registered worker node_07",
		"Registering worker node_08", "Registered worker node_08",
		"bufstart=11 bufend=22", "Totally novel failure on host8:1234",
	}
	const n = 600
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	recs := make([]logging.Record, n)
	for i := range recs {
		recs[i] = streamRec(fmt.Sprintf("c%d", i%7), renderings[i%len(renderings)], t0.Add(time.Duration(i)*time.Millisecond))
	}
	for _, encoded := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			d := fixture(t)
			s := NewStream(d, StreamConfig{})
			var dec Decoder
			for lo := 0; lo < n; lo += 64 {
				batch := recs[lo:min(lo+64, n)]
				if !encoded {
					s.ConsumeBatch(batch, workers)
					continue
				}
				var body []byte
				for i := range batch {
					body = wal.AppendRecord(body, &batch[i])
				}
				if err := dec.decode(len(batch), body); err != nil {
					t.Fatal(err)
				}
				s.consumeStaged(dec.recs, dec.msgs, workers)
			}
			hits, misses := d.Cache.Stats()
			if hits+misses != n {
				t.Errorf("encoded %v, workers %d: hits %d + misses %d = %d probes, want %d", encoded, workers, hits, misses, hits+misses, n)
			}
			if workers == 1 && misses != uint64(len(renderings)) {
				t.Errorf("encoded %v, workers 1: %d misses, want one per distinct rendering (%d)", encoded, misses, len(renderings))
			}
		}
	}
}
