// Package spell implements Spell (Du & Li, ICDM 2017), the streaming
// log-key extractor IntelLog uses as its first stage (§2.1, §5). Raw log
// messages stream in; Spell clusters them by longest-common-subsequence
// similarity and maintains one log key per cluster, with variable fields
// replaced by "*".
//
// Two refinements over a naive LCS matcher keep keys faithful for the
// analytics-log domain:
//
//   - a merge only wildcards tokens that look variable (contain digits,
//     '#', '_', '/', ':' …). Pure alphabetic words are part of the constant
//     text by construction of logging statements, so "Registering block
//     manager …" and "Registered block manager …" stay distinct keys;
//   - candidate keys are pre-filtered by length (within 2× of the message),
//     the simple-loop optimisation from the Spell paper.
//
// The threshold t (IntelLog sets t = 1.7 empirically) controls how much of
// a message must be covered by the LCS: a key matches when
// lcs·t ≥ max(len(key), len(msg)).
//
// Matching is indexed: tokens are interned to dense int32 IDs (intern.go)
// and keys are indexed by their constant tokens (index.go), so positional
// lookups probe a handful of anchor buckets instead of scanning a length
// bucket, and the LCS path only considers keys sharing at least one
// constant token with the message. DP scratch comes from sync.Pools, so
// steady-state matching allocates nothing. The output is byte-identical
// to the seed linear-scan matcher, which the package's tests keep as a
// reference (reference_test.go) for equivalence tests and ablation
// benchmarks.
package spell

import (
	"sort"
	"strings"
	"sync"
)

// Wildcard is the placeholder for a variable field in a log key.
const Wildcard = "*"

// Key is one extracted log key.
type Key struct {
	// ID is a dense index assigned in discovery order.
	ID int
	// Tokens is the key's token sequence; variable fields are Wildcard.
	Tokens []string
	// Sample is the token sequence of the first message that created this
	// key. IntelLog feeds the sample (not the key) to the POS tagger (§3).
	Sample []string
	// Count is the number of messages matched to this key.
	Count int

	// ids is Tokens interned by the owning parser. Unexported fields are
	// skipped by encoding/json, so persisted models carry only the string
	// form; Restore re-interns.
	ids []int32
	// seq reproduces the seed matcher's length-bucket order: assigned on
	// creation and on every length-changing merge (which re-appended the
	// key at the end of its new bucket).
	seq int
	// stamp/shared are Consume-scoped candidate bookkeeping: stamp dedupes
	// a key surfacing from several postings lists in one Consume, shared
	// counts message tokens the key contains (an upper bound on merged
	// constants, used to prune hopeless LCS candidates).
	stamp  int
	shared int
}

// String renders the key with wildcards, e.g. "fetcher#* about to shuffle
// output of map *".
func (k *Key) String() string { return strings.Join(k.Tokens, " ") }

// NumWildcards returns the number of variable fields in the key.
func (k *Key) NumWildcards() int {
	n := 0
	for _, t := range k.Tokens {
		if t == Wildcard {
			n++
		}
	}
	return n
}

// Parser is a streaming Spell instance. The zero value is not usable; use
// NewParser.
//
// Concurrency: Consume must be called from a single goroutine; once
// consumption is done, any number of goroutines may call Lookup
// concurrently (all index structures are then read-only).
type Parser struct {
	t    float64
	keys []*Key
	// classicLCS disables the constant-word merge guard, reverting to the
	// original Spell rule (merge whenever the LCS clears the threshold,
	// wildcarding any divergent token). Exposed for the ablation that
	// motivates the guard.
	classicLCS bool

	in *interner
	// lens is the per-length anchor index (see index.go).
	lens map[int]*lenBuckets
	// postings maps constant token ID → keys containing it.
	postings map[int32][]*Key
	// seq is the bucket-order sequence counter (see Key.seq).
	seq int
	// epoch stamps candidate gathering per Consume call.
	epoch int

	// Consume-only scratch (training is single-threaded per parser).
	msgIDs  []int32
	cands   []*Key
	bestBuf []int32
}

// NewClassicParser returns a Parser using the original Spell matching
// rule without the constant-word merge guard (ablation).
func NewClassicParser(t float64) *Parser {
	p := NewParser(t)
	p.classicLCS = true
	return p
}

// DefaultThreshold is the t value the paper found effective (§5).
const DefaultThreshold = 1.7

// NewParser returns a Parser with the given matching threshold t; values
// ≤ 1 fall back to DefaultThreshold.
func NewParser(t float64) *Parser {
	if t <= 1 {
		t = DefaultThreshold
	}
	return &Parser{
		t:        t,
		in:       newInterner(),
		lens:     make(map[int]*lenBuckets),
		postings: make(map[int32][]*Key),
	}
}

// Keys returns all keys discovered so far, in discovery order.
func (p *Parser) Keys() []*Key { return p.keys }

// Restore rebuilds a Parser around previously extracted keys (model
// loading). The threshold governs future Consume calls; Lookup works
// immediately. The restored parser takes ownership of the keys — it
// re-interns their tokens — so the parser they came from must not be used
// afterwards.
func Restore(t float64, keys []*Key) *Parser {
	p := NewParser(t)
	for _, k := range keys {
		p.keys = append(p.keys, k)
		p.indexKey(k)
	}
	return p
}

// indexKey interns k's tokens, assigns its bucket sequence and registers
// it in the inverted index.
func (p *Parser) indexKey(k *Key) {
	ids := make([]int32, len(k.Tokens))
	for i, tok := range k.Tokens {
		ids[i] = p.in.intern(tok)
	}
	k.ids = ids
	k.seq = p.nextSeq()
	p.addToIndex(k)
}

func (p *Parser) nextSeq() int {
	p.seq++
	return p.seq
}

// Consume processes one tokenized message and returns its key, creating or
// refining keys as needed.
func (p *Parser) Consume(tokens []string) *Key {
	if len(tokens) == 0 {
		return nil
	}
	// Fast path: positional match against same-length keys, via the anchor
	// index instead of a length-bucket scan. Runs on token text, so repeats of an
	// established template never touch the interner.
	if k := p.matchPositional(tokens); k != nil {
		k.Count++
		return k
	}
	ids := p.msgIDs[:0]
	for _, tok := range tokens {
		ids = append(ids, p.in.intern(tok))
	}
	p.msgIDs = ids

	// LCS path: best mergeable key within the length window. A merge is
	// admissible when (a) only variable-looking tokens get wildcarded
	// (constant words in logging statements never vary), (b) the merged
	// key covers the originals: len(merged)·t ≥ max length, so a gap may
	// collapse at most (t−1)/t of a message, and (c) at least one constant
	// token anchors the key. Among admissible keys the one keeping the
	// most constant tokens wins; ties keep the key the seed matcher's
	// (length, bucket-order) scan would have reached first.
	if best, merged := p.bestMerge(ids); best != nil {
		p.applyMerge(best, merged)
		best.Count++
		return best
	}

	k := &Key{ID: len(p.keys), Tokens: append([]string(nil), tokens...), Sample: append([]string(nil), tokens...), Count: 1}
	p.keys = append(p.keys, k)
	p.indexKey(k)
	return k
}

// bestMerge gathers merge candidates from the postings of the message's
// tokens and returns the winning key with its merged token IDs (valid
// until the next Consume), or nil.
func (p *Parser) bestMerge(ids []int32) (*Key, []int32) {
	lo := len(ids)/2 + len(ids)%2
	hi := len(ids) * 2
	p.epoch++
	cands := p.cands[:0]
	for _, id := range ids {
		if id == wildcardID {
			continue // a literal "*" can never align as a constant
		}
		for _, k := range p.postings[id] {
			if l := len(k.ids); l < lo || l > hi {
				continue
			}
			if k.stamp != p.epoch {
				k.stamp = p.epoch
				k.shared = 0
				cands = append(cands, k)
			}
			k.shared++
		}
	}
	p.cands = cands
	sort.Sort(byLenSeq(cands))

	scratch := mergeScratchPool.Get().(*mergeScratch)
	var best *Key
	bestConst := 0
	bestMerged := p.bestBuf[:0]
	for _, k := range cands {
		// k.shared bounds the constants a merge with k can keep; once it
		// cannot beat the current best, the O(n·m) DP is pointless.
		if k.shared <= bestConst {
			continue
		}
		merged, ok := tryMergeIDs(k.ids, ids, p.in, scratch)
		if !ok && !p.classicLCS {
			continue
		}
		maxLen := len(ids)
		if len(k.ids) > maxLen {
			maxLen = len(k.ids)
		}
		if float64(len(merged))*p.t < float64(maxLen) {
			continue
		}
		c := 0
		for _, id := range merged {
			if id != wildcardID {
				c++
			}
		}
		if c == 0 || c <= bestConst {
			continue
		}
		best, bestConst = k, c
		bestMerged = append(bestMerged[:0], merged...)
	}
	mergeScratchPool.Put(scratch)
	p.bestBuf = bestMerged
	if best == nil {
		return nil, nil
	}
	return best, bestMerged
}

// applyMerge rewrites key k with the merged token IDs, keeping every
// index structure consistent and reproducing the seed matcher's bucket
// mechanics: a same-length merge rewrites tokens in place, a
// length-changing merge moves the key to the end of its new length
// bucket (fresh seq).
func (p *Parser) applyMerge(k *Key, merged []int32) {
	if idsEqual(k.ids, merged) {
		return // merge kept the key's tokens verbatim; only Count changes
	}
	p.removeFromIndex(k)
	lenChanged := len(merged) != len(k.ids)
	k.ids = append(k.ids[:0], merged...)
	toks := make([]string, len(merged))
	for i, id := range merged {
		toks[i] = p.in.token(id)
	}
	k.Tokens = toks
	if lenChanged {
		k.seq = p.nextSeq()
	}
	p.addToIndex(k)
}

func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// byLenSeq orders candidates exactly as the seed matcher scanned them:
// ascending length window, then bucket insertion order.
type byLenSeq []*Key

func (s byLenSeq) Len() int      { return len(s) }
func (s byLenSeq) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s byLenSeq) Less(i, j int) bool {
	if len(s[i].ids) != len(s[j].ids) {
		return len(s[i].ids) < len(s[j].ids)
	}
	return s[i].seq < s[j].seq
}

// Lookup returns the key matching tokens without modifying parser state,
// or nil. Used in the detection phase where unmatched messages are
// anomalies rather than new keys. Safe for concurrent callers once
// consumption is done.
func (p *Parser) Lookup(tokens []string) *Key {
	if len(tokens) == 0 {
		return nil
	}
	return p.matchPositional(tokens)
}

// mergeScratch bundles the DP table and backtrack buffers one Consume's
// LCS pass needs; pooled so steady-state consumption allocates nothing.
type mergeScratch struct {
	dp  []int32
	rev []int32
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// tryMergeIDs is tryMerge over interned IDs: it aligns key and msg by LCS
// and produces the merged key — aligned tokens stay, divergent runs
// collapse to a single wildcard. ok is false if any divergent token is not
// variable-looking. The returned slice aliases scratch.
func tryMergeIDs(key, msg []int32, in *interner, s *mergeScratch) ([]int32, bool) {
	n, m := len(key), len(msg)
	w := m + 1
	need := (n + 1) * w
	if cap(s.dp) < need {
		s.dp = make([]int32, need)
	}
	dp := s.dp[:need]
	for j := 0; j <= m; j++ {
		dp[j] = 0
	}
	for i := 1; i <= n; i++ {
		row := dp[i*w : i*w+w]
		prev := dp[(i-1)*w : i*w]
		row[0] = 0
		ki := key[i-1]
		for j := 1; j <= m; j++ {
			if ki == msg[j-1] || ki == wildcardID {
				row[j] = prev[j-1] + 1
			} else if prev[j] >= row[j-1] {
				row[j] = prev[j]
			} else {
				row[j] = row[j-1]
			}
		}
	}
	// Backtrack, building the merged sequence in reverse.
	rev := s.rev[:0]
	ok := true
	i, j := n, m
	pendingGap := false
	flushGap := func() {
		if pendingGap {
			if len(rev) == 0 || rev[len(rev)-1] != wildcardID {
				rev = append(rev, wildcardID)
			}
			pendingGap = false
		}
	}
	for i > 0 && j > 0 {
		ki := key[i-1]
		if ki == msg[j-1] || ki == wildcardID {
			flushGap()
			rev = append(rev, ki)
			i--
			j--
			continue
		}
		if dp[(i-1)*w+j] >= dp[i*w+j-1] {
			if !in.variable(ki) {
				ok = false
			}
			pendingGap = true
			i--
		} else {
			if !in.variable(msg[j-1]) {
				ok = false
			}
			pendingGap = true
			j--
		}
	}
	for ; i > 0; i-- {
		if !in.variable(key[i-1]) {
			ok = false
		}
		pendingGap = true
	}
	for ; j > 0; j-- {
		if !in.variable(msg[j-1]) {
			ok = false
		}
		pendingGap = true
	}
	flushGap()
	// Reverse.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	s.rev = rev
	return rev, ok
}

// positionalMatch reports whether tokens aligns with key position by
// position, treating Wildcard as matching any single token.
func positionalMatch(key, tokens []string) bool {
	if len(key) != len(tokens) {
		return false
	}
	for i, kt := range key {
		if kt != Wildcard && kt != tokens[i] {
			return false
		}
	}
	return true
}

// lcsRowPool recycles the two DP rows lcsLen needs.
var lcsRowPool = sync.Pool{New: func() any {
	b := make([]int, 0, 128)
	return &b
}}

// lcsLen returns the length of the longest common subsequence of a and b,
// with Wildcard in a matching any token of b.
func lcsLen(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	bufp := lcsRowPool.Get().(*[]int)
	need := 2 * (len(b) + 1)
	buf := *bufp
	if cap(buf) < need {
		buf = make([]int, need)
	}
	buf = buf[:need]
	for i := range buf {
		buf[i] = 0
	}
	prev, cur := buf[:len(b)+1], buf[len(b)+1:]
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] || a[i-1] == Wildcard {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	out := prev[len(b)]
	*bufp = buf
	lcsRowPool.Put(bufp)
	return out
}

// variableLooking reports whether a token may be a variable field: it
// contains a digit, identifier punctuation, or is a path/URL. Constant
// text in logging statements is plain words, so only variable-looking
// tokens may be wildcarded by a merge.
func variableLooking(tok string) bool {
	if tok == Wildcard {
		return true
	}
	if strings.ContainsAny(tok, "0123456789_#/:@") {
		return true
	}
	return false
}
