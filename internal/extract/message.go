package extract

import (
	"hash/maphash"
	"slices"
	"strings"
	"time"

	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// Message is an Intel Message (§3.3): a log message matched to an Intel
// Key with every variable field bound. It is a key-value structure that
// serialises naturally to JSON and time-series stores.
type Message struct {
	// KeyID is the Intel Key this message matched.
	KeyID int `json:"keyId"`
	// Time is the log timestamp.
	Time time.Time `json:"time"`
	// Session is the YARN container (session) ID.
	Session string `json:"session,omitempty"`
	// Raw is the original message text.
	Raw string `json:"raw"`
	// Entities copies the key's entity phrases.
	Entities []string `json:"entities,omitempty"`
	// Identifiers maps identifier type → observed values, e.g.
	// {"FETCHER": ["fetcher#1"], "ATTEMPT": ["attempt_01"]}.
	Identifiers map[string][]string `json:"identifiers,omitempty"`
	// Values maps unit (or "" for unitless) → numeric literals.
	Values map[string][]string `json:"values,omitempty"`
	// Localities maps locality class → tokens, e.g. {"ADDR": ["host1:13562"]}.
	Localities map[string][]string `json:"localities,omitempty"`
	// Operations copies the key's operations.
	Operations []Operation `json:"operations,omitempty"`
}

// IDValue is one distinct identifier value of a rendering: the string,
// a 64-bit hash of it, and how often the value occurs in the rendering's
// identifier multiset. The hash is a pure function of the string within
// one process (it is seeded per process and must never be persisted),
// so any two prototypes agree on it without sharing a table.
type IDValue struct {
	Val   string
	Hash  uint64
	Count int32
}

// idSeed seeds every IDValue.Hash in the process.
var idSeed = maphash.MakeSeed()

// Proto is the Algorithm-2 prototype of a rendering that matched an Intel
// Key: everything §4.1's instance assignment and the per-session checks
// read, and nothing else. The key ID, type set and signature belong to
// the key (its shared skeleton); the rendering only fills the identifier
// values. It has no field maps, so it cannot stand in for an Intel
// Message in the query API. BindProto builds it whole; it is read-only
// after, and shared by every record of the rendering.
type Proto struct {
	// Raw is the rendering's text.
	Raw string
	sk  *skeleton
	ids []IDValue
	// one backs ids when the rendering has one distinct value, the common
	// case, so such a prototype is a single 80 B object.
	one [1]IDValue
}

// KeyID returns the Intel Key the rendering matched.
func (p *Proto) KeyID() int { return p.sk.id }

// Values returns the distinct identifier values, sorted, each with its
// hash and occurrence count: the log.Sv of Algorithm 2 as a multiset.
func (p *Proto) Values() []IDValue { return p.ids }

// Types returns the sorted distinct identifier types ("" is filed as
// "ID", as Bind does). Prototypes of one key share the slice.
func (p *Proto) Types() []string { return p.sk.types }

// Signature returns Types joined with "+": the subroutine signature of
// Algorithm 2.
func (p *Proto) Signature() string { return p.sk.sig }

// Bind matches a tokenized log message against an Intel Key and produces
// the Intel Message. Token counts must align positionally with the key
// (the spell.Parser guarantees this for looked-up keys).
func Bind(key *IntelKey, tokens []nlp.Token, ts time.Time, session, raw string) *Message {
	m := &Message{
		KeyID:      key.ID,
		Time:       ts,
		Session:    session,
		Raw:        raw,
		Entities:   key.Entities,
		Operations: key.Operations,
	}
	// The field maps allocate lazily: most keys carry slots of one or two
	// kinds, consumers only read the maps (a nil map reads as empty), and
	// omitempty keeps the JSON shape identical.
	for _, slot := range key.Slots {
		if slot.Pos >= len(tokens) {
			continue
		}
		tok := tokens[slot.Pos].Text
		switch slot.Kind {
		case SlotIdentifier:
			typ := slot.Type
			if typ == "" {
				typ = "ID"
			}
			if m.Identifiers == nil {
				m.Identifiers = map[string][]string{}
			}
			m.Identifiers[typ] = append(m.Identifiers[typ], tok)
		case SlotValue:
			num, unit, ok := numericValued(tok)
			if !ok {
				num, unit = tok, slot.Type
			}
			if unit == "" {
				unit = slot.Type
			}
			if m.Values == nil {
				m.Values = map[string][]string{}
			}
			m.Values[unit] = append(m.Values[unit], num)
		case SlotLocality:
			if m.Localities == nil {
				m.Localities = map[string][]string{}
			}
			m.Localities[slot.Type] = append(m.Localities[slot.Type], tok)
		}
	}
	return m
}

// BindProto returns the Algorithm-2 prototype of a rendering that matched
// key: Raw, the key's shared skeleton and the rendering's identifier
// values, equal on everything Algorithm 2 reads to a Bind of the same
// tokens.
func BindProto(key *IntelKey, tokens []nlp.Token, raw string) *Proto {
	p := &Proto{Raw: raw, sk: key.skeleton()}
	if slices.ContainsFunc(p.sk.idPos, func(pos int) bool { return pos >= len(tokens) }) {
		// Bind drops such slots, which can change the type set; only a
		// hand-built key gets here (Parser.Lookup matches same length).
		p.sk = compileSkeleton(key.ID, key.Slots, len(tokens))
	}
	vals := p.one[:0]
	if n := len(p.sk.idPos); n > 1 {
		vals = make([]IDValue, 0, n)
	}
	for _, pos := range p.sk.idPos {
		vals = append(vals, IDValue{Val: tokens[pos].Text, Count: 1})
	}
	slices.SortFunc(vals, func(a, b IDValue) int { return strings.Compare(a.Val, b.Val) })
	out := vals[:0]
	for _, v := range vals {
		if len(out) > 0 && out[len(out)-1].Val == v.Val { // sorted: duplicates are adjacent
			out[len(out)-1].Count++
			continue
		}
		v.Hash = maphash.String(idSeed, v.Val)
		out = append(out, v)
	}
	if len(out) > 0 {
		p.ids = out
	}
	return p
}

// CachedLookup is the per-raw-message memo callers attach to a
// spell.LookupCache entry. A rendering that matched a natural-language
// key carries its Proto, which detection consumes directly and HW-graph
// modeling folds; the query API binds full Intel Messages with Bind
// instead. Everything a published memo references is shared and
// read-only.
type CachedLookup struct {
	Proto *Proto

	// Adhoc is the §3 extraction of an unmatched rendering (key == nil),
	// already bound: Bind of the rendering's ad-hoc Intel Key with a zero
	// time and no session. Every repeat of the rendering is an
	// unexpected-message anomaly, and the extraction depends only on the
	// raw text, so it is built once per distinct rendering and each
	// anomaly copies it with its own time and session, sharing the maps
	// (Rebinder's contract: consumers never mutate them). AdhocGroup and
	// AdhocDetail carry the (equally text-determined) entity-group
	// attribution and summary line. All three are set before the memo is
	// published to the cache and read-only after.
	Adhoc       *Message
	AdhocGroup  string
	AdhocDetail string
}

// Rebinder copies a bound prototype per record with the per-record
// fields filled in, sharing its maps and slices (consumers never mutate
// them), out of block-allocated Message arrays instead of one heap
// object per record. The zero value is ready to use; a Rebinder must not
// be shared across goroutines.
type Rebinder struct {
	buf []Message
}

// Rebind returns the copy of proto stamped with ts and session.
func (r *Rebinder) Rebind(proto *Message, ts time.Time, session string) *Message {
	if len(r.buf) == 0 {
		r.buf = make([]Message, 256)
	}
	m := &r.buf[0]
	r.buf = r.buf[1:]
	*m = *proto
	m.Time = ts
	m.Session = session
	return m
}

// Matches reports whether a tokenized message positionally matches the
// Intel Key's log key.
func Matches(key *IntelKey, tokens []nlp.Token) bool {
	if len(tokens) != len(key.Tokens) {
		return false
	}
	for i, kt := range key.Tokens {
		if kt != spell.Wildcard && kt != tokens[i].Text {
			return false
		}
	}
	return true
}
