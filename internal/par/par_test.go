package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersFollowsGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := Workers(); got != 1 {
		t.Fatalf("Workers() = %d at GOMAXPROCS=1, want 1", got)
	}
	runtime.GOMAXPROCS(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d at GOMAXPROCS=3, want 3", got)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	ForEachIndex(0, func(int) { called = true })
	if called {
		t.Fatal("fn called for an empty index range")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{1, 2, 7, 100} {
			var hits [100]atomic.Int32
			ForEach(n, workers, func(i int) { hits[i].Add(1) })
			for i := 0; i < n; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times, want 1", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachWorkersExceedItems(t *testing.T) {
	// More workers than items must not spawn idle goroutines that race
	// the close, nor skip items.
	var count atomic.Int32
	ForEach(3, 128, func(i int) { count.Add(1) })
	if got := count.Load(); got != 3 {
		t.Fatalf("ran %d items, want 3", got)
	}
}

func TestForEachSingleProc(t *testing.T) {
	// GOMAXPROCS=1 must not deadlock or lose items — workers are real
	// goroutines, not OS threads, so the pool still drains.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var count atomic.Int32
	ForEach(50, 8, func(i int) { count.Add(1) })
	if got := count.Load(); got != 50 {
		t.Fatalf("ran %d items, want 50", got)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	// A panic in a worker must surface on the caller's goroutine, not
	// crash the process, at any worker count (incl. the serial path).
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForEach(16, workers, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForEachPanicStillRunsOtherItems(t *testing.T) {
	// With multiple workers, surviving workers drain the remaining items
	// before the captured panic re-raises — no goroutine leaks, no hangs.
	var count atomic.Int32
	func() {
		defer func() { recover() }()
		ForEach(32, 4, func(i int) {
			if i == 0 {
				panic("first")
			}
			count.Add(1)
		})
	}()
	if got := count.Load(); got < 28 {
		t.Fatalf("only %d non-panicking items ran", got)
	}
}
