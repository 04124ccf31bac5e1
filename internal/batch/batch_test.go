package batch

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"intellog/internal/logging"
	"intellog/internal/wal"
)

func TestGetReleaseRecycles(t *testing.T) {
	p := NewPool(8)
	b := p.Get()
	if b.Len() != 0 {
		t.Fatalf("fresh batch has %d records, want 0", b.Len())
	}
	b.Append(logging.Record{Message: "a"})
	b.Append(logging.Record{Message: "b"})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	b.Release()

	got := p.Get()
	if got != b {
		t.Fatalf("second Get did not recycle the released batch")
	}
	if got.Len() != 0 {
		t.Fatalf("recycled batch has %d records, want 0", got.Len())
	}
	got.Release()

	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 hit", st)
	}
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after all releases, want 0", st.Outstanding)
	}
}

func TestGrow(t *testing.T) {
	p := NewPool(4)
	b := p.Get()
	defer b.Release()
	b.Append(logging.Record{Message: "keep"})
	b.Grow(1000)
	if room := cap(b.Body) - len(b.Body); room < 1000 {
		t.Fatalf("room = %d after Grow(1000)", room)
	}
	rec, rest, err := wal.DecodeRecord(b.Body)
	if b.Len() != 1 || err != nil || len(rest) != 0 || rec.Message != "keep" {
		t.Fatalf("Grow lost the fill: %d records, %+v, %v", b.Len(), rec, err)
	}
	// Growing within the room already there is a no-op.
	prev := cap(b.Body)
	b.Grow(10)
	if cap(b.Body) != prev {
		t.Fatalf("Grow(10) changed cap %d -> %d", prev, cap(b.Body))
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool(4)
	b := p.Get()
	b.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("double release did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double release") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	b.Release()
}

func TestLeakDetectorCatchesDroppedBatch(t *testing.T) {
	p := NewPool(4)
	leakCh := make(chan int, 1)
	p.DetectLeaks(func(bodyCap int) { leakCh <- bodyCap })

	// Acquire a batch in a scope the compiler can prove dead, then drop
	// it on the floor without Release.
	func() {
		b := p.Get()
		b.Append(logging.Record{Message: "leaked"})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case capa := <-leakCh:
			if capa < 4 {
				t.Fatalf("leak reported cap %d, want >= 4", capa)
			}
			st := p.Stats()
			if st.Leaked != 1 {
				t.Fatalf("Leaked = %d, want 1", st.Leaked)
			}
			if st.Outstanding != 0 {
				t.Fatalf("Outstanding = %d after leak accounting, want 0", st.Outstanding)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak detector never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLeakDetectorSilentOnRelease(t *testing.T) {
	p := NewPool(4)
	p.DetectLeaks(func(recordCap int) {
		t.Errorf("leak reported for a properly released batch (cap %d)", recordCap)
	})
	for i := 0; i < 100; i++ {
		b := p.Get()
		b.Append(logging.Record{Message: "ok"})
		b.Release()
	}
	// Give any stray finalizer a chance to fire before the test ends.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	time.Sleep(20 * time.Millisecond)
	if st := p.Stats(); st.Leaked != 0 {
		t.Fatalf("Leaked = %d, want 0", st.Leaked)
	}
}

// TestConcurrentAcquireRelease races rent/release pairs across
// goroutines. Each goroutine holds at most one batch, so at most
// `workers` are ever outstanding — and one shared freelist only
// allocates when every batch it ever made is rented, so misses can
// never exceed that peak.
func TestConcurrentAcquireRelease(t *testing.T) {
	p := NewPool(16)
	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := p.Get()
				for j := 0; j < seed%4+1; j++ {
					b.Append(logging.Record{Message: "m", SessionID: "s"})
				}
				if b.Len() == 0 {
					t.Errorf("empty fill")
				}
				b.Release()
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after quiesce, want 0", st.Outstanding)
	}
	if total := st.Hits + st.Misses; total != workers*rounds {
		t.Fatalf("hits+misses = %d, want %d", total, workers*rounds)
	}
	if st.Misses > workers {
		t.Fatalf("misses = %d above the %d-batch peak outstanding", st.Misses, workers)
	}
}

// TestCrossGoroutineRecycle is the ingest shape: one goroutine rents
// (the decoder), another releases (the tenant worker). Misses stay
// bounded by the most batches ever outstanding at once.
func TestCrossGoroutineRecycle(t *testing.T) {
	p := NewPool(4)
	const (
		inFlight = 16
		rounds   = 5000
	)
	ch := make(chan *Batch, inFlight)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range ch {
			b.Release()
		}
	}()
	for i := 0; i < rounds; i++ {
		ch <- p.Get()
	}
	close(ch)
	<-done
	st := p.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after quiesce, want 0", st.Outstanding)
	}
	// At most inFlight sit in the channel, one is being released and one
	// is being sent.
	if peak := uint64(inFlight + 2); st.Misses > peak {
		t.Fatalf("misses = %d above the %d-batch peak outstanding", st.Misses, peak)
	}
}

// TestFreelistBounded releases far more batches than the freelist may
// park: the surplus goes to the GC, never onto the list.
func TestFreelistBounded(t *testing.T) {
	p := NewPool(4)
	var live []*Batch
	for i := 0; i < maxParked*2; i++ {
		live = append(live, p.Get())
	}
	for _, b := range live {
		b.Release()
	}
	p.mu.Lock()
	parked := len(p.free)
	p.mu.Unlock()
	if parked != maxParked {
		t.Fatalf("parked %d batches, want the %d bound", parked, maxParked)
	}
	if st := p.Stats(); st.Outstanding != 0 {
		t.Fatalf("outstanding = %d, want 0", st.Outstanding)
	}
}
