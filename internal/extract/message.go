package extract

import (
	"hash/maphash"
	"sort"
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

	// idSet and typeSet cache IdentifierSet and IdentifierTypes. Copies
	// of a bound prototype share them, so the sorts run once per distinct
	// rendering instead of once per record. Callers must treat the
	// returned slices as read-only.
	idSet   []string
	typeSet []string
	// typeSig caches TypeSignature (and typeSigOK distinguishes a cached
	// "" from an uncomputed one). Shared by prototype copies like typeSet.
	typeSig   string
	typeSigOK bool
	// idVals caches IdentifierValues: the form of idSet Algorithm 2
	// consumes. Filled by IdentifierSet, shared by prototype copies.
	idVals []IDValue
}

// IDValue is one distinct identifier value of a message: the string,
// a 64-bit hash of it, and how often the value occurs in the message's
// identifier multiset. The hash is a pure function of the string within
// one process (it is seeded per process and must never be persisted),
// so any two messages agree on it without sharing a table.
type IDValue struct {
	Val   string
	Hash  uint64
	Count int32
}

// idSeed seeds every IDValue.Hash in the process.
var idSeed = maphash.MakeSeed()

// IdentifierSet returns the sorted set of all identifier values in the
// message — the log.Sv of Algorithm 2. The result is cached on the
// message and must not be mutated. The same call caches
// IdentifierValues, so a prototype that had IdentifierSet called before
// it was published is read-only for Algorithm 2 as well.
func (m *Message) IdentifierSet() []string {
	if m.idSet != nil {
		return m.idSet
	}
	out := []string{}
	for _, vals := range m.Identifiers {
		out = append(out, vals...)
	}
	m.setIdentifiers(out)
	return out
}

// setIdentifiers sorts out and caches it as IdentifierSet and IdentifierValues.
func (m *Message) setIdentifiers(out []string) {
	sort.Strings(out)
	if len(out) > 0 {
		vals := make([]IDValue, 0, len(out))
		for i, v := range out {
			if i > 0 && v == out[i-1] { // sorted: duplicates are adjacent
				vals[len(vals)-1].Count++
				continue
			}
			vals = append(vals, IDValue{Val: v, Hash: maphash.String(idSeed, v), Count: 1})
		}
		m.idVals = vals
	}
	m.idSet = out
}

// IdentifierValues returns the distinct values of IdentifierSet in the
// same (sorted) order, each with its hash and occurrence count; the
// counts sum to len(IdentifierSet()). Cached with IdentifierSet and
// read-only like it.
func (m *Message) IdentifierValues() []IDValue {
	if m.idSet == nil {
		m.IdentifierSet()
	}
	return m.idVals
}

// IdentifierTypes returns the sorted distinct identifier types of the
// message. The result is cached on the message and must not be mutated.
func (m *Message) IdentifierTypes() []string {
	if m.typeSet != nil {
		return m.typeSet
	}
	out := make([]string, 0, len(m.Identifiers))
	for t := range m.Identifiers {
		out = append(out, t)
	}
	sort.Strings(out)
	m.typeSet = out
	return out
}

// TypeSignature returns the message's identifier types joined with "+"
// in sorted order — the subroutine-signature string of Algorithm 2. The
// result is cached on the message (prototype copies share it), so the
// join runs once per distinct rendering instead of once per instance.
func (m *Message) TypeSignature() string {
	if m.typeSigOK {
		return m.typeSig
	}
	m.typeSig = strings.Join(m.IdentifierTypes(), "+")
	m.typeSigOK = true
	return m.typeSig
}

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
// key: KeyID, Raw and the identifier caches, equal to those of a Bind of
// the same tokens, with the key's shared type set and signature and no
// field maps. The result is read-only.
func BindProto(key *IntelKey, tokens []nlp.Token, raw string) *Message {
	sk := key.skeleton()
	ids := make([]string, len(sk.idPos))
	for i, p := range sk.idPos {
		if p >= len(tokens) {
			// Bind drops such slots, which can change the type set; only a
			// hand-built key gets here (Parser.Lookup matches same length).
			m := Bind(key, tokens, time.Time{}, "", raw)
			m.IdentifierSet()
			m.TypeSignature()
			return m
		}
		ids[i] = tokens[p].Text
	}
	m := &Message{KeyID: key.ID, Raw: raw, typeSet: sk.types, typeSig: sk.sig, typeSigOK: true}
	m.setIdentifiers(ids)
	return m
}

// CachedLookup is the per-raw-message memo callers attach to a
// spell.LookupCache entry. A rendering that matched a natural-language
// key carries its BindProto prototype, which detection consumes directly
// and HW-graph modeling folds; it has no field maps, so the query API
// binds full Intel Messages with Bind instead. Everything a published
// memo references is shared and read-only.
type CachedLookup struct {
	Proto *Message

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
