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
}

func TestLookupCacheEvictsLRU(t *testing.T) {
	c := spell.NewLookupCache(3)
	for i := 0; i < 3; i++ {
		c.AddAux(fmt.Sprintf("m%d", i), &spell.Key{ID: i}, nil)
	}
	c.GetAux("m0") // m0 becomes most recent; m1 is now LRU
	c.AddAux("m3", &spell.Key{ID: 3}, nil)
	if _, _, hit := c.GetAux("m1"); hit {
		t.Fatal("LRU entry m1 survived eviction")
	}
	for _, m := range []string{"m0", "m2", "m3"} {
		if _, _, hit := c.GetAux(m); !hit {
			t.Fatalf("%s evicted unexpectedly", m)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
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

// TestLookupCacheHitRefreshesRecency: at every fill level, a hit moves
// its entry to the front, so the next eviction takes the entry behind it.
// Presence is checked with Peek, which leaves recency alone.
func TestLookupCacheHitRefreshesRecency(t *testing.T) {
	const capacity = 8
	for fill := 2; fill <= capacity; fill++ {
		c := spell.NewLookupCache(capacity)
		for i := 0; i < fill; i++ {
			c.AddAux(fmt.Sprintf("m%d", i), &spell.Key{ID: i}, nil)
		}
		c.GetAux("m0") // m0 becomes most recent; m1 is now LRU
		for i := fill; i <= capacity; i++ {
			c.AddAux(fmt.Sprintf("m%d", i), &spell.Key{ID: i}, nil) // the last add evicts
		}
		if _, _, _, hit := c.Peek([]byte("m0")); !hit {
			t.Errorf("fill %d/%d: m0 evicted although its hit made it most recent", fill, capacity)
		}
		if _, _, _, hit := c.Peek([]byte("m1")); hit {
			t.Errorf("fill %d/%d: m1 survived; the hit on m0 should have made m1 the LRU", fill, capacity)
		}
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
// the counters are guarded, and afterwards hits+misses must equal the exact
// number of reads issued.
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
// contract of the acceptance criteria.
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
