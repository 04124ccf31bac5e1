package extract

import (
	"strings"

	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// BuildIntelKey runs the full §3 pipeline on one log key: POS tagging via
// the sample message (Fig. 3), field classification (§3.1), entity
// extraction (Table 2 patterns + camel-case filter) and operation
// extraction (§3.2). The result is the Intel Key for that log key.
func BuildIntelKey(k *spell.Key) *IntelKey {
	// Tag the sample message, not the key: wildcards would mislead the
	// tagger. When a merge changed the key's length the sample no longer
	// aligns, so fall back to tagging the key itself.
	sample := k.Sample
	if len(sample) != len(k.Tokens) {
		sample = k.Tokens
	}
	tokens := make([]nlp.Token, len(sample))
	for i, w := range sample {
		tokens[i] = nlp.Token{Text: w}
	}
	nlp.Tag(tokens)

	ik := &IntelKey{
		ID:     k.ID,
		Tokens: append([]string(nil), k.Tokens...),
		Tags:   nlp.Tags(tokens),
	}

	// Field classification. Variable fields are classified through the
	// sample's concrete token; constant identifier-shaped or locality
	// tokens are classified too (a key like "fetcher#1 …" may keep a
	// constant identifier if only one value was ever observed).
	skip := map[int]bool{}
	for i := range tokens {
		variable := k.Tokens[i] == spell.Wildcard
		slot, ok := classifyField(tokens, i, variable)
		if !ok {
			continue
		}
		ik.Slots = append(ik.Slots, slot)
		skip[i] = true
	}

	// Entities from the constant text. Identifier words ("fetcher" in
	// "fetcher # 1") participate directly: the tokenizer splits the
	// '#'-form, so the word is ordinary constant text, matching the
	// paper's Fig. 1 coloring.
	phrases, srcOf := ExtractEntities(tokens, skip)
	ik.Entities = phrases

	// Operations from the dependency structure of the sample.
	parse := nlp.ParseDeps(tokens)
	ik.Operations = ExtractOperations(parse, srcOf)

	// NL criterion: at least one clause (a predicate), or prepositional
	// prose without a predicate ("Down to the last merge-pass …").
	ik.NaturalLanguage = len(parse.Roots) > 0 || hasProseShape(tokens, skip)
	return ik
}

// classifyField applies the four §3.1 heuristics to token i. ok is false
// when the token is plain constant text.
func classifyField(tokens []nlp.Token, i int, variable bool) (Slot, bool) {
	t := tokens[i]
	// Heuristic 1: verb POS tags are never identifiers or values; locality
	// patterns run first.
	if cls, ok := LocalityClass(t.Text); ok {
		return Slot{Pos: i, Kind: SlotLocality, Type: cls}, true
	}
	if nlp.IsVerb(t.Tag) {
		if variable {
			return Slot{Pos: i, Kind: SlotOther}, true
		}
		return Slot{}, false
	}
	// Heuristic 2: a numeric field followed by a unit is a value; attached
	// units ("4ms") count too.
	if num, unit, ok := numericValued(t.Text); ok {
		if unit != "" {
			return Slot{Pos: i, Kind: SlotValue, Type: unit}, true
		}
		if j := i + 1; j < len(tokens) && IsUnit(tokens[j].Text) {
			return Slot{Pos: i, Kind: SlotValue, Type: strings.ToLower(nlp.Lemma(tokens[j].Text, nlp.TagNNS))}, true
		}
		_ = num
		// Heuristic 4: numbers only — identifier if the previous word is a
		// noun, value otherwise.
		if prev, tag := prevWordTag(tokens, i); prev != "" && nlp.IsNoun(tag) {
			return Slot{Pos: i, Kind: SlotIdentifier, Type: IdentifierType(t.Text, prev)}, true
		}
		return Slot{Pos: i, Kind: SlotValue}, true
	}
	// Heuristic 3: mixed letters and numbers form identifiers.
	if identifierShaped(t.Text) {
		return Slot{Pos: i, Kind: SlotIdentifier, Type: IdentifierType(t.Text, prevWordOf(tokens, i))}, true
	}
	if variable {
		return Slot{Pos: i, Kind: SlotOther}, true
	}
	return Slot{}, false
}

// prevWordTag returns the previous non-punctuation token's text and tag.
func prevWordTag(tokens []nlp.Token, i int) (string, string) {
	for j := i - 1; j >= 0; j-- {
		if tokens[j].Tag == nlp.TagSYM {
			continue
		}
		return tokens[j].Text, tokens[j].Tag
	}
	return "", ""
}

// hasProseShape reports whether the constant text reads as prose even
// without a predicate: it contains a preposition or determiner among
// ordinary words. Key-value dumps fail this test.
func hasProseShape(tokens []nlp.Token, skip map[int]bool) bool {
	words := 0
	hasFunc := false
	for i, t := range tokens {
		if skip[i] || t.Tag == nlp.TagSYM {
			continue
		}
		words++
		if t.Tag == nlp.TagIN || t.Tag == nlp.TagDT || t.Tag == nlp.TagTO {
			hasFunc = true
		}
	}
	return hasFunc && words >= 3
}
