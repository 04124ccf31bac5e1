package spell_test

import (
	"fmt"
	"sync"
	"testing"

	"intellog/internal/spell"
)

func TestLookupCacheHitMissAndNegative(t *testing.T) {
	c := spell.NewLookupCache(4)
	if _, _, hit := c.GetAux("a"); hit {
		t.Fatal("empty cache reported a hit")
	}
	k := &spell.Key{ID: 3, Tokens: []string{"a"}}
	c.AddAux("a", k, nil)
	if got, _, hit := c.GetAux("a"); !hit || got != k {
		t.Fatalf("GetAux(a) = %v, %v", got, hit)
	}
	// Negative entries are hits carrying a nil key.
	c.AddAux("miss", nil, nil)
	if got, _, hit := c.GetAux("miss"); !hit || got != nil {
		t.Fatalf("negative GetAux = %v, %v; want nil, true", got, hit)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2 hits / 1 miss", hits, misses)
	}
	// Probe is the same counted lookup by bytes, and a hit hands back the
	// stored string.
	if canon, got, _, hit := c.Probe([]byte("a")); !hit || got != k || canon != "a" {
		t.Fatalf("Probe(a) = %q, %v, %v", canon, got, hit)
	}
	if _, _, _, hit := c.Probe([]byte("absent")); hit {
		t.Fatal("Probe of an absent rendering reported a hit")
	}
	if hits, misses := c.Stats(); hits != 3 || misses != 2 {
		t.Fatalf("stats after Probe = %d/%d, want 3 hits / 2 misses", hits, misses)
	}
}

// addRenderings adds the renderings mlo … m(hi-1), each with its own key.
func addRenderings(c *spell.LookupCache, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.AddAux(fmt.Sprintf("m%d", i), &spell.Key{ID: i}, nil)
	}
}

// cached probes with Peek, which leaves the visited bits alone.
func cached(c *spell.LookupCache, msg string) bool {
	_, _, _, hit := c.Peek([]byte(msg))
	return hit
}

// admit inserts msg into a full cache the way the resolve path does:
// AddAux on every sighting until the doorkeeper lets it in (the second,
// or the first when the doorkeeper mistakes it for a repeat). The entry
// ends unvisited either way.
func admit(c *spell.LookupCache, msg string) {
	for !cached(c, msg) {
		c.AddAux(msg, nil, nil)
	}
}

// TestLookupCacheEvictsLRU: in a full cache where only the oldest entry
// was hit, the eviction takes the least recently used one behind it, as
// an LRU would: the hand passes over the visited m0 and evicts m1.
func TestLookupCacheEvictsLRU(t *testing.T) {
	c := spell.NewLookupCache(3)
	addRenderings(c, 0, 3)
	c.GetAux("m0") // m0 visited; m1 is now the first unvisited entry
	admit(c, "m3")
	if cached(c, "m1") {
		t.Fatal("LRU entry m1 survived eviction")
	}
	for _, m := range []string{"m0", "m2", "m3"} {
		if !cached(c, m) {
			t.Fatalf("%s evicted unexpectedly", m)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestLookupCacheHitRefreshesRecency: at every fill level, a hit marks its
// entry visited, so once the cache is full the hand passes over it and
// evicts the first unvisited entry behind it.
func TestLookupCacheHitRefreshesRecency(t *testing.T) {
	const capacity = 8
	for fill := 1; fill <= capacity; fill++ {
		c := spell.NewLookupCache(capacity)
		addRenderings(c, 0, fill)
		c.GetAux("m0")
		addRenderings(c, fill, capacity)
		admit(c, "new0")
		if !cached(c, "m0") {
			t.Errorf("fill %d/%d: m0 evicted although a hit marked it visited", fill, capacity)
		}
		if cached(c, "m1") {
			t.Errorf("fill %d/%d: m1 survived; it was the first unvisited entry past the hand", fill, capacity)
		}
	}
}

// TestLookupCacheSecondChance: passing over a visited entry spends its
// bit, so the entry survives exactly one sweep and is the victim when the
// hand next reaches it without another hit.
func TestLookupCacheSecondChance(t *testing.T) {
	const capacity = 8
	c := spell.NewLookupCache(capacity)
	addRenderings(c, 0, capacity)
	c.GetAux("m0")
	admit(c, "new0") // spends m0's bit, evicts m1
	// m2 … m7 go next, then the hand is back at m0, whose bit it spent.
	for i := 1; i < capacity-1; i++ {
		admit(c, fmt.Sprintf("new%d", i))
	}
	if !cached(c, "m0") {
		t.Error("m0 evicted before the hand came back to it")
	}
	admit(c, "last")
	if cached(c, "m0") {
		t.Error("m0 survived a second sweep without another hit")
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
}

// TestLookupCacheDoorkeeper: below capacity every AddAux is admitted; at
// capacity a rendering's first sighting is declined and counted, and its
// second is admitted.
func TestLookupCacheDoorkeeper(t *testing.T) {
	const capacity = 64
	c := spell.NewLookupCache(capacity)
	for i := 0; i < capacity; i++ {
		msg := fmt.Sprintf("m%d", i)
		c.AddAux(msg, nil, nil)
		if !cached(c, msg) || c.Len() != i+1 {
			t.Fatalf("AddAux(%s) at Len %d was not admitted", msg, i)
		}
	}
	if d := c.Declined(); d != 0 {
		t.Fatalf("Declined = %d below capacity, want 0", d)
	}
	// The doorkeeper is empty when the cache first fills, so nothing can
	// pass this first sighting off as a repeat.
	c.AddAux("x", nil, nil)
	if cached(c, "x") || c.Declined() != 1 {
		t.Fatalf("first sighting at capacity: cached %v, Declined %d; want declined once", cached(c, "x"), c.Declined())
	}
	c.AddAux("x", nil, nil)
	if !cached(c, "x") || c.Declined() != 1 || c.Len() != capacity {
		t.Fatalf("second sighting: cached %v, Declined %d, Len %d; want admitted in place of one entry",
			cached(c, "x"), c.Declined(), c.Len())
	}
}

// TestLookupCacheOneShotsLeaveWorkingSet: a full cache whose entries stay
// in use keeps at least 90 % of them while ten capacities of one-shot
// renderings (HDFS block IDs) go past. Only the doorkeeper's false
// positives get in. An LRU — or CLOCK admitting everything — replaces the
// whole working set within the first capacity of one-shots.
func TestLookupCacheOneShotsLeaveWorkingSet(t *testing.T) {
	const capacity = 1024
	c := spell.NewLookupCache(capacity)
	addRenderings(c, 0, capacity)
	for round := 0; round < 10; round++ {
		for i := 0; i < capacity; i++ {
			c.GetAux(fmt.Sprintf("m%d", i))
		}
		for i := 0; i < capacity; i++ {
			c.AddAux(fmt.Sprintf("one-shot %d/%d", round, i), nil, nil)
		}
	}
	kept := 0
	for i := 0; i < capacity; i++ {
		if cached(c, fmt.Sprintf("m%d", i)) {
			kept++
		}
	}
	t.Logf("kept %d of %d working-set entries; %d one-shots declined", kept, capacity, c.Declined())
	if kept < capacity*9/10 {
		t.Errorf("kept %d of %d working-set entries, want at least 90 %%", kept, capacity)
	}
}

// TestLookupCacheLoopHitShare: a loop over twice the capacity in distinct
// renderings, each probed and added on a miss (HDFS's cycle against the
// cache), reaches a steady-state hit share above 0. An LRU evicts every
// rendering before it comes round again and never hits.
func TestLookupCacheLoopHitShare(t *testing.T) {
	const capacity = 1024
	c := spell.NewLookupCache(capacity)
	pass := func() {
		for i := 0; i < 2*capacity; i++ {
			msg := fmt.Sprintf("r%d", i)
			if _, _, hit := c.GetAux(msg); !hit {
				c.AddAux(msg, nil, nil)
			}
		}
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	h0, m0 := c.Stats()
	for i := 0; i < 5; i++ {
		pass()
	}
	h, m := c.Stats()
	share := float64(h-h0) / float64(h-h0+m-m0)
	t.Logf("steady-state hit share %.3f", share)
	if share <= 0 {
		t.Errorf("steady-state hit share %.3f, want above 0", share)
	}
}

func TestLookupCacheUpdateExisting(t *testing.T) {
	c := spell.NewLookupCache(2)
	c.AddAux("m", nil, nil)
	k := &spell.Key{ID: 9}
	c.AddAux("m", k, nil)
	if got, _, hit := c.GetAux("m"); !hit || got != k {
		t.Fatalf("updated entry = %v, %v", got, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double AddAux, want 1", c.Len())
	}
}

// TestLookupCacheAddAuxOverwritesCachedMiss: a cached miss with no aux
// later gains a key and an aux memo in place.
func TestLookupCacheAddAuxOverwritesCachedMiss(t *testing.T) {
	c := spell.NewLookupCache(4)
	c.AddAux("m", nil, nil)
	if k, aux, hit := c.GetAux("m"); !hit || k != nil || aux != nil {
		t.Fatalf("cached miss = (%v, %v, %v), want (nil, nil, true)", k, aux, hit)
	}
	key := &spell.Key{ID: 5}
	memo := "memoized lookup"
	c.AddAux("m", key, memo)
	k, aux, hit := c.GetAux("m")
	if !hit || k != key || aux != memo {
		t.Fatalf("overwritten entry = (%v, %v, %v), want key+aux hit", k, aux, hit)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after in-place overwrite, want 1", c.Len())
	}
}

// TestLookupCacheStatsConcurrentReaders hammers GetAux/Stats from
// parallel readers while a writer churns entries; under -race it proves
// the counters are safe with hits under the shared lock, and afterwards
// hits+misses must equal the exact number of reads issued.
func TestLookupCacheStatsConcurrentReaders(t *testing.T) {
	// Capacity exceeds everything added below, so the hot keys can never
	// be evicted and the hit/miss split is exact, not racy.
	c := spell.NewLookupCache(1024)
	for i := 0; i < 8; i++ {
		c.AddAux(fmt.Sprintf("hot%d", i), &spell.Key{ID: i}, nil)
	}
	const readers, reads = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if i%2 == 0 {
					c.GetAux(fmt.Sprintf("hot%d", i%8))
				} else {
					c.GetAux(fmt.Sprintf("cold%d-%d", w, i))
				}
				if i%100 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	// A concurrent writer keeps the write lock busy too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.AddAux(fmt.Sprintf("churn%d", i), nil, i)
		}
	}()
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != readers*reads {
		t.Errorf("hits %d + misses %d = %d, want %d reads", hits, misses, hits+misses, readers*reads)
	}
	if hits != readers*reads/2 || misses != readers*reads/2 {
		t.Errorf("hits %d / misses %d, want an exact %d/%d split", hits, misses, readers*reads/2, readers*reads/2)
	}
}

// TestLookupCacheConcurrent exercises the cache and a trained parser from
// many goroutines; run with -race it proves the concurrent-reader
// contract of the acceptance criteria. 64 renderings through a
// 32-entry cache keep the hand, the doorkeeper and evictions busy beside
// the shared-lock hits.
func TestLookupCacheConcurrent(t *testing.T) {
	p := spell.NewParser(0)
	var msgs [][]string
	for i := 0; i < 64; i++ {
		m := []string{"task", fmt.Sprint(i), "finished", "on", fmt.Sprintf("host_%d", i%5)}
		p.Consume(append([]string(nil), m...))
		msgs = append(msgs, m)
	}
	c := spell.NewLookupCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := msgs[(i+w)%len(msgs)]
				raw := fmt.Sprint(m)
				k, _, hit := c.GetAux(raw)
				if !hit {
					k = p.Lookup(m)
					c.AddAux(raw, k, nil)
				}
				if k == nil {
					t.Errorf("trained message %v failed to match", m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
