// Package extract implements IntelLog's information-extraction stage (§3):
// it turns log keys into Intel Keys by classifying every field as entity,
// identifier, value or locality via POS analysis, and extracting the
// operations {subj-entity, predicate, obj-entity} via dependency structure.
// Incoming log messages that match an Intel Key become Intel Messages —
// key-value structured records ready for storage and querying.
package extract

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// SlotKind classifies a variable or identifier-shaped field of a log key.
type SlotKind int

// Slot kinds, mirroring the four variable-field categories of §2.1
// (operations are not slots; they are relations over tokens).
const (
	SlotIdentifier SlotKind = iota
	SlotValue
	SlotLocality
	SlotOther
)

var slotKindNames = [...]string{"identifier", "value", "locality", "other"}

// String returns the lower-case kind name.
func (k SlotKind) String() string {
	if k < SlotIdentifier || k > SlotOther {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return slotKindNames[k]
}

// Slot is one classified field of an Intel Key.
type Slot struct {
	// Pos is the token index within the key.
	Pos int `json:"pos"`
	// Kind is the field category.
	Kind SlotKind `json:"kind"`
	// Type is the capitalized identifier type ("FETCHER", "ATTEMPT", "TID"),
	// the unit for values ("bytes", "ms"), or the locality class ("HOST",
	// "ADDR", "PATH", "URI").
	Type string `json:"type,omitempty"`
}

// Operation is the 3-tuple of §3.2 extracted from a clause's dependency
// structure. Subject or Object may be empty ("Finished task …" has no
// subject).
type Operation struct {
	Subject   string `json:"subject,omitempty"`
	Predicate string `json:"predicate"`
	Object    string `json:"object,omitempty"`
}

// String renders the operation as "{subject, predicate, object}".
func (o Operation) String() string {
	return "{" + o.Subject + ", " + o.Predicate + ", " + o.Object + "}"
}

// IntelKey is the enhanced representation of a log key (§3): the key's
// tokens and POS tags plus the extracted semantic fields.
type IntelKey struct {
	// ID is the underlying spell key's ID.
	ID int `json:"id"`
	// Tokens is the log key's token sequence ("*" marks variable fields).
	Tokens []string `json:"tokens"`
	// Tags holds the POS tags, aligned with Tokens, obtained by tagging a
	// sample message and mapping the tags back onto the key (Fig. 3).
	Tags []string `json:"tags"`
	// Entities are the lemmatized entity phrases extracted by the POS
	// patterns of Table 2 plus the camel-case filter.
	Entities []string `json:"entities"`
	// Slots classifies the key's identifier/value/locality fields.
	Slots []Slot `json:"slots"`
	// Operations are the extracted {subj, predicate, obj} tuples.
	Operations []Operation `json:"operations"`
	// NaturalLanguage reports whether the key contains at least one clause
	// (the paper's NL-log criterion in §2.2, used in Table 1).
	NaturalLanguage bool `json:"naturalLanguage"`

	// skel is the key compiled for BindProto, built on first use.
	skel atomic.Pointer[skeleton]
}

// skeleton is everything Algorithm 2 reads from a message bound to the
// key except the identifier values themselves.
type skeleton struct {
	idPos []int    // identifier slot positions, in slot order
	types []string // sorted distinct identifier types, "" read as "ID"; never nil
	sig   string   // types joined with "+"
}

// skeleton returns the key's compiled skeleton. Concurrent first calls
// may each compile one; all of them get the first one published.
func (k *IntelKey) skeleton() *skeleton {
	if s := k.skel.Load(); s != nil {
		return s
	}
	s := &skeleton{types: []string{}}
	for _, slot := range k.Slots {
		if slot.Kind != SlotIdentifier {
			continue
		}
		s.idPos = append(s.idPos, slot.Pos)
		if typ := cmp.Or(slot.Type, "ID"); !slices.Contains(s.types, typ) {
			s.types = append(s.types, typ)
		}
	}
	sort.Strings(s.types)
	s.sig = strings.Join(s.types, "+")
	k.skel.CompareAndSwap(nil, s)
	return k.skel.Load()
}

// String renders the key text.
func (k *IntelKey) String() string { return strings.Join(k.Tokens, " ") }

// IdentifierTypes returns the set of identifier types in the key, sorted
// by slot position. The set acts as the subroutine signature in §4.1.
func (k *IntelKey) IdentifierTypes() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range k.Slots {
		if s.Kind == SlotIdentifier && s.Type != "" && !seen[s.Type] {
			seen[s.Type] = true
			out = append(out, s.Type)
		}
	}
	return out
}

// HasEntity reports whether the key extracted the given entity phrase.
func (k *IntelKey) HasEntity(phrase string) bool {
	for _, e := range k.Entities {
		if e == phrase {
			return true
		}
	}
	return false
}
