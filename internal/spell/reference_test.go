package spell

// The seed linear-scan matcher, kept as a test-only reference type.
// Equivalence tests (equivalence_test.go, fuzz_test.go) run randomized
// corpora through it and the indexed Parser and require byte-identical
// keys; the ablation benchmarks in bench_test.go quantify what the
// indexed path buys.
//
// One cleanup versus the seed: tryMergeRef drops the seed's unreachable
// wildcard-collapse arm (`else if … tok == Wildcard` nested under the
// aligned branch, which can only run when tok != Wildcard). The arm never
// executed, so behaviour is unchanged — TestMergeKeepsAlignedWildcards
// pins the resulting (unchanged) semantics: aligned wildcards are kept
// as-is, only divergent runs collapse to a single wildcard.

// NaiveParser is the seed matcher: keys bucketed by token count and
// scanned in bucket order.
type NaiveParser struct {
	t          float64
	classicLCS bool
	keys       []*Key
	byLen      map[int][]*Key
}

// NewNaiveParser returns the seed matcher with threshold t (≤ 1 means
// DefaultThreshold).
func NewNaiveParser(t float64) *NaiveParser {
	if t <= 1 {
		t = DefaultThreshold
	}
	return &NaiveParser{t: t, byLen: make(map[int][]*Key)}
}

// NewNaiveClassicParser is the seed matcher without the constant-word
// merge guard.
func NewNaiveClassicParser(t float64) *NaiveParser {
	p := NewNaiveParser(t)
	p.classicLCS = true
	return p
}

// RestoreNaiveParser is the seed Restore: rebuild the length buckets
// around existing keys.
func RestoreNaiveParser(t float64, keys []*Key) *NaiveParser {
	p := NewNaiveParser(t)
	for _, k := range keys {
		p.keys = append(p.keys, k)
		p.byLen[len(k.Tokens)] = append(p.byLen[len(k.Tokens)], k)
	}
	return p
}

// Keys returns all keys discovered so far, in discovery order.
func (p *NaiveParser) Keys() []*Key { return p.keys }

// Consume is the seed Consume: positional scan of the same-length
// bucket, then an LCS pass over every key in the length window.
func (p *NaiveParser) Consume(tokens []string) *Key {
	if len(tokens) == 0 {
		return nil
	}
	for _, k := range p.byLen[len(tokens)] {
		if positionalMatch(k.Tokens, tokens) {
			k.Count++
			return k
		}
	}
	var best *Key
	var bestMerged []string
	bestConst := 0
	for l := len(tokens)/2 + len(tokens)%2; l <= len(tokens)*2; l++ {
		for _, k := range p.byLen[l] {
			merged, ok := tryMergeRef(k.Tokens, tokens)
			if !ok && !p.classicLCS {
				continue
			}
			maxLen := len(tokens)
			if len(k.Tokens) > maxLen {
				maxLen = len(k.Tokens)
			}
			if float64(len(merged))*p.t < float64(maxLen) {
				continue
			}
			c := len(merged) - countWildcards(merged)
			if c == 0 {
				continue
			}
			if c > bestConst {
				best, bestMerged, bestConst = k, merged, c
			}
		}
	}
	if best != nil {
		if len(bestMerged) != len(best.Tokens) {
			p.reindex(best, bestMerged)
		} else {
			best.Tokens = bestMerged
		}
		best.Count++
		return best
	}
	k := &Key{ID: len(p.keys), Tokens: append([]string(nil), tokens...), Sample: append([]string(nil), tokens...), Count: 1}
	p.keys = append(p.keys, k)
	p.byLen[len(tokens)] = append(p.byLen[len(tokens)], k)
	return k
}

// Lookup is the seed Lookup: an in-order scan of the same-length bucket.
func (p *NaiveParser) Lookup(tokens []string) *Key {
	for _, k := range p.byLen[len(tokens)] {
		if positionalMatch(k.Tokens, tokens) {
			return k
		}
	}
	return nil
}

// reindex moves a key between length buckets after a merge changed its
// token count.
func (p *NaiveParser) reindex(k *Key, merged []string) {
	old := p.byLen[len(k.Tokens)]
	for i, kk := range old {
		if kk == k {
			p.byLen[len(k.Tokens)] = append(old[:i], old[i+1:]...)
			break
		}
	}
	k.Tokens = merged
	p.byLen[len(merged)] = append(p.byLen[len(merged)], k)
}

// countWildcards returns the number of Wildcard tokens in a key sequence.
func countWildcards(key []string) int {
	n := 0
	for _, t := range key {
		if t == Wildcard {
			n++
		}
	}
	return n
}

// tryMergeRef aligns key and tokens by LCS and produces the merged key:
// aligned tokens stay, divergent runs collapse to a single Wildcard. ok is
// false if any divergent token is not variable-looking.
func tryMergeRef(key, tokens []string) ([]string, bool) {
	n, m := len(key), len(tokens)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if key[i-1] == tokens[j-1] || key[i-1] == Wildcard {
				dp[i][j] = dp[i-1][j-1] + 1
			} else if dp[i-1][j] >= dp[i][j-1] {
				dp[i][j] = dp[i-1][j]
			} else {
				dp[i][j] = dp[i][j-1]
			}
		}
	}
	// Backtrack, building the merged sequence in reverse.
	var rev []string
	ok := true
	i, j := n, m
	pendingGap := false
	flushGap := func() {
		if pendingGap {
			if len(rev) == 0 || rev[len(rev)-1] != Wildcard {
				rev = append(rev, Wildcard)
			}
			pendingGap = false
		}
	}
	for i > 0 && j > 0 {
		if key[i-1] == tokens[j-1] || key[i-1] == Wildcard {
			flushGap()
			rev = append(rev, key[i-1])
			i--
			j--
			continue
		}
		if dp[i-1][j] >= dp[i][j-1] {
			if !variableLooking(key[i-1]) {
				ok = false
			}
			pendingGap = true
			i--
		} else {
			if !variableLooking(tokens[j-1]) {
				ok = false
			}
			pendingGap = true
			j--
		}
	}
	for i > 0 {
		if !variableLooking(key[i-1]) {
			ok = false
		}
		pendingGap = true
		i--
	}
	for j > 0 {
		if !variableLooking(tokens[j-1]) {
			ok = false
		}
		pendingGap = true
		j--
	}
	flushGap()
	// Reverse.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, ok
}
