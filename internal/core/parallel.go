package core

import (
	"intellog/internal/extract"
	"intellog/internal/par"
	"intellog/internal/spell"
)

// buildIntelKeys runs extract.BuildIntelKey over all Spell keys with a
// worker pool. Results are positional, so the output is deterministic
// regardless of scheduling.
func buildIntelKeys(keys []*spell.Key) []*extract.IntelKey {
	out := make([]*extract.IntelKey, len(keys))
	par.ForEachIndex(len(keys), func(i int) {
		out[i] = extract.BuildIntelKey(keys[i])
	})
	return out
}

// stride runs fn(i) for every i in [0, n) on workers goroutines, worker w
// taking i = w, w+workers, …: one hand-off per worker, not per item.
// fn must be safe to call concurrently and write results positionally.
func stride(n, workers int, fn func(i int)) {
	workers = max(min(workers, n), 1)
	par.ForEach(workers, workers, func(w int) {
		for i := w; i < n; i += workers {
			fn(i)
		}
	})
}
