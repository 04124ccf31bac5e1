package detect

import (
	"fmt"
	"runtime"
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

// hdfsDetector is a detector trained on four hdfsRendering lines: one
// natural-language Intel Key, with BLK and SIZE identifier slots.
func hdfsDetector() *Detector {
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
	return NewDetector(parser, keys, b.KeyGroups, b.Graph())
}

// TestColdMissAllocs: a new rendering of a matched natural-language key —
// 97 % of the HDFS workload's records — resolves through lookupRecord
// into one cache slot and the Algorithm-2 prototype, with no field maps
// and no token split left behind: the CachedLookup, the prototype and,
// since this rendering carries two identifier values (a one-value
// prototype holds its value inline), its value array — 3 allocations.
// The cache's slot slice and map grow geometrically, so they add a
// fraction of one per miss; an entry object of its own (the old LRU's
// node and list element) would not fit under the bound.
func TestColdMissAllocs(t *testing.T) {
	const bound = 3
	d := hdfsDetector()
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
		if key == nil || cl.Proto == nil || len(cl.Proto.Values()) == 0 {
			t.Fatalf("%q did not resolve to a prototype with identifiers", recs[n].Message)
		}
		n++
	})
	t.Logf("a cold miss allocates %.1f objects", allocs)
	if allocs > bound {
		t.Errorf("a cold miss allocates %.1f objects, want at most %d", allocs, bound)
	}
}

// TestCacheEntryHeap resolves 16,384 distinct HDFS renderings through a
// detector, each a miss that publishes its memo, as the HDFS workload's
// one-shot renderings fill the daemon's cache. After a collection, the
// live heap each entry holds, its text excluded, must stay within the
// cache's own share (a 48 B slot and its map entry, each with append's
// spare capacity: ≈ 120 B at most), the CachedLookup (48 B), the 80 B
// prototype and its two-value array (64 B): 312 B. A memo that kept the
// rendering as a bound Intel Message with its Algorithm-2 caches read
// ≈ 490 B here.
func TestCacheEntryHeap(t *testing.T) {
	const n, bound = 1 << 14, 312
	d := hdfsDetector()
	recs := make([]logging.Record, n)
	for i := range recs {
		recs[i].Message = hdfsRendering(i)
	}
	scr := d.getScratch()
	defer d.putScratch(scr)
	liveHeap := func() float64 {
		// Twice: an earlier detector's pooled scratch pins the detector
		// until a second collection clears the pools' victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	base := liveHeap()
	for i := range recs {
		if key, cl := d.lookupRecord(&recs[i], scr); key == nil || cl.Proto == nil {
			t.Fatalf("%q did not resolve to a prototype", recs[i].Message)
		}
	}
	perEntry := (liveHeap() - base) / n
	if got := d.Cache.Len(); got != n {
		t.Fatalf("cache holds %d entries, want %d", got, n)
	}
	t.Logf("live heap per cache entry %.0f B, bound %d B", perEntry, bound)
	if perEntry > bound {
		t.Errorf("live heap per cache entry %.0f B, want at most %d B", perEntry, bound)
	}
	runtime.KeepAlive(recs)
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
