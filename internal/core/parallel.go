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
