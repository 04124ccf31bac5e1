// Package par provides the tiny worker-pool primitive shared by the
// embarrassingly parallel pipeline stages (training's tokenize, bind,
// Intel Key building and group folds, the streaming resolve fan-out,
// batch-detect sharding).
// It replaces three copy-pasted pool loops whose unbuffered work
// channels made the producer block once per item.
package par

import (
	"runtime"
	"sync"
)

// Workers is the default pool size: one worker per P, so a process
// capped by GOMAXPROCS (or runtime.GOMAXPROCS) starts no more workers
// than can run at once.
func Workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ForEachIndex runs fn(i) for every i in [0, n) on a pool of Workers()
// goroutines. See ForEach for the contract.
func ForEachIndex(n int, fn func(i int)) {
	ForEach(n, Workers(), fn)
}

// ForEach runs fn(i) for every i in [0, n) on a pool of exactly
// min(workers, n) goroutines — callers that want genuine concurrency
// beyond the CPU count (e.g. shard-count conformance runs under -race on
// small machines) pass workers explicitly. The work channel is fully
// buffered and filled before the workers start, so neither side ever
// blocks on hand-off. Callers write results positionally, which keeps
// output deterministic regardless of scheduling. fn must be safe to call
// concurrently.
//
// A panic inside fn does not crash the process from a worker goroutine:
// the first panic value is captured, the remaining items drain through
// the surviving workers, and the panic is re-raised on the caller's
// goroutine once the pool has quiesced — the same observable behavior as
// the serial path, so callers can rely on recover working at the call
// site at any worker count.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int, n)
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for i := range work {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
