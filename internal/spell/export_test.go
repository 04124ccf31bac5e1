package spell

// Test-only exports.

// TryMergeIDsForTest runs the interned-ID merge on raw token strings via
// a throwaway interner and maps the result back to strings.
func TryMergeIDsForTest(key, msg []string) ([]string, bool) {
	in := newInterner()
	kids := make([]int32, len(key))
	for i, t := range key {
		kids[i] = in.intern(t)
	}
	mids := make([]int32, len(msg))
	for i, t := range msg {
		mids[i] = in.intern(t)
	}
	var s mergeScratch
	merged, ok := tryMergeIDs(kids, mids, in, &s)
	out := make([]string, len(merged))
	for i, id := range merged {
		out[i] = in.token(id)
	}
	return out, ok
}
