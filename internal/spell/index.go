package spell

// Inverted indexing of keys by their constant (non-wildcard) tokens. Two
// structures replace the linear length-bucket scans of the seed matcher:
//
//   - lens buckets every key by length, then by (first-constant position,
//     token text). A positional lookup probes one bucket per candidate
//     anchor position — a key of length L whose first constant sits at
//     position p can only match messages whose token at p equals that
//     constant, because all key positions before p are wildcards. Each
//     key lives in exactly one bucket, and maxAnchor caps how deep the
//     probing goes (log keys anchor within the first few tokens), so a
//     lookup costs one int-map probe plus a handful of string-map probes
//     instead of a bucket scan. Probing on token text keeps Lookup free
//     of interning work and of any allocation.
//   - postings maps a constant token ID to the keys containing it. Any
//     admissible LCS merge keeps at least one constant token (Consume
//     rejects all-wildcard merges), and a merged constant is by
//     construction a token the key and the message share, so the union of
//     the postings of the message's tokens is a complete candidate set.
//
// Keys whose tokens are all wildcards (possible only when a raw message
// consists of literal "*" fields) can never anchor or merge; they are
// kept in wild per length and positionally match any same-length message.
//
// Every bucket and postings list is kept in ascending key.seq order —
// the order the seed matcher would have scanned them — so candidate
// iteration (and therefore tie-breaking) is byte-identical to the seed.

// lenBuckets indexes the keys of one token count.
type lenBuckets struct {
	// maxAnchor is max(first-constant position)+1 over this length's
	// keys; it only grows, a sound upper bound after removals.
	maxAnchor int
	// byPos[pos][tok] lists the keys whose first constant is tok at pos.
	byPos []map[string][]*Key
	// wild holds all-wildcard keys in ascending seq order.
	wild []*Key
}

// firstConstPos returns the first non-wildcard position of ids, or -1.
func firstConstPos(ids []int32) int {
	for i, id := range ids {
		if id != wildcardID {
			return i
		}
	}
	return -1
}

// containsBefore reports whether id occurs in ids[:i]; used to add each
// distinct constant to postings once per key.
func containsBefore(ids []int32, i int, id int32) bool {
	for _, x := range ids[:i] {
		if x == id {
			return true
		}
	}
	return false
}

// addToIndex registers k (with k.ids already interned) in the anchor and
// postings structures.
func (p *Parser) addToIndex(k *Key) {
	n := len(k.Tokens)
	lb := p.lens[n]
	if lb == nil {
		lb = &lenBuckets{}
		p.lens[n] = lb
	}
	if pos := firstConstPos(k.ids); pos >= 0 {
		for len(lb.byPos) <= pos {
			lb.byPos = append(lb.byPos, nil)
		}
		m := lb.byPos[pos]
		if m == nil {
			m = make(map[string][]*Key)
			lb.byPos[pos] = m
		}
		tok := k.Tokens[pos]
		m[tok] = append(m[tok], k)
		if pos+1 > lb.maxAnchor {
			lb.maxAnchor = pos + 1
		}
	} else {
		lb.wild = append(lb.wild, k)
	}
	for i, id := range k.ids {
		if id == wildcardID || containsBefore(k.ids, i, id) {
			continue
		}
		p.postings[id] = append(p.postings[id], k)
	}
}

// removeFromIndex unregisters k using its current k.ids/k.Tokens. Must
// run before a merge rewrites the key's tokens.
func (p *Parser) removeFromIndex(k *Key) {
	lb := p.lens[len(k.Tokens)]
	if pos := firstConstPos(k.ids); pos >= 0 {
		m := lb.byPos[pos]
		tok := k.Tokens[pos]
		if s := removeKey(m[tok], k); len(s) == 0 {
			delete(m, tok)
		} else {
			m[tok] = s
		}
	} else {
		lb.wild = removeKey(lb.wild, k)
	}
	for i, id := range k.ids {
		if id == wildcardID || containsBefore(k.ids, i, id) {
			continue
		}
		if s := removeKey(p.postings[id], k); len(s) == 0 {
			delete(p.postings, id)
		} else {
			p.postings[id] = s
		}
	}
}

// removeKey deletes k from s preserving order.
func removeKey(s []*Key, k *Key) []*Key {
	for i, kk := range s {
		if kk == k {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// matchPositional returns the positionally matching key with the smallest
// bucket sequence — exactly the key the seed matcher's in-order
// length-bucket scan would have returned first — or nil. Read-only and allocation-free; safe
// for concurrent callers.
func (p *Parser) matchPositional(tokens []string) *Key {
	lb := p.lens[len(tokens)]
	if lb == nil {
		return nil
	}
	var best *Key
	for pos := 0; pos < lb.maxAnchor; pos++ {
		m := lb.byPos[pos]
		if m == nil {
			continue
		}
		for _, k := range m[tokens[pos]] {
			if (best == nil || k.seq < best.seq) && positionalMatch(k.Tokens, tokens) {
				best = k
			}
		}
	}
	// An all-wildcard key matches any same-length message; the bucket is
	// in ascending seq order so only its head can win.
	if len(lb.wild) > 0 {
		if k := lb.wild[0]; best == nil || k.seq < best.seq {
			best = k
		}
	}
	return best
}
