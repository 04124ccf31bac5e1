// Package nlp provides the natural-language substrate IntelLog relies on:
// a log-aware tokenizer, a Penn Treebank part-of-speech tagger, a
// lemmatizer, a camel-case splitter and a rule-based dependency parser
// producing the Universal Dependencies subset of Table 3 in the paper.
//
// The paper uses OpenNLP for POS tagging and the Stanford parser for
// dependency structure. Neither exists for pure-stdlib Go, so this package
// implements both from scratch, tuned for the constrained register of
// system-log English: short, single-clause sentences over a bounded
// technical vocabulary with many identifiers.
package nlp

import "strings"

// Token is one token of a log message with its part-of-speech tag. Tag is
// empty until the token has been through Tag.
type Token struct {
	// Text is the surface form as it appears in the message.
	Text string
	// Tag is the Penn Treebank part-of-speech tag.
	Tag string
}

// Penn Treebank tags used by this package. The set is restricted to tags
// that occur in log text.
const (
	TagNN   = "NN"   // singular noun
	TagNNS  = "NNS"  // plural noun
	TagNNP  = "NNP"  // proper noun (also used for identifiers and camel-case class names)
	TagNNPS = "NNPS" // plural proper noun
	TagJJ   = "JJ"   // adjective
	TagVB   = "VB"   // verb, base form
	TagVBD  = "VBD"  // verb, past tense
	TagVBG  = "VBG"  // verb, gerund/present participle
	TagVBN  = "VBN"  // verb, past participle
	TagVBP  = "VBP"  // verb, non-3rd-person singular present
	TagVBZ  = "VBZ"  // verb, 3rd-person singular present
	TagMD   = "MD"   // modal
	TagIN   = "IN"   // preposition/subordinating conjunction
	TagTO   = "TO"   // "to"
	TagDT   = "DT"   // determiner
	TagCD   = "CD"   // cardinal number
	TagCC   = "CC"   // coordinating conjunction
	TagRB   = "RB"   // adverb
	TagPRP  = "PRP"  // personal pronoun
	TagSYM  = "SYM"  // symbol (also used for punctuation tokens)
	TagUH   = "UH"   // interjection
)

// IsNoun reports whether tag is one of the four noun tags. Table 2 of the
// paper treats all four as 'NN' for entity-pattern matching.
func IsNoun(tag string) bool {
	switch tag {
	case TagNN, TagNNS, TagNNP, TagNNPS:
		return true
	}
	return false
}

// IsVerb reports whether tag is any verb tag.
func IsVerb(tag string) bool {
	return strings.HasPrefix(tag, "VB")
}

// IsAdjective reports whether tag is an adjective tag.
func IsAdjective(tag string) bool { return tag == TagJJ }

// Texts returns the surface forms of tokens.
func Texts(tokens []Token) []string {
	return AppendTexts(make([]string, 0, len(tokens)), tokens)
}

// AppendTexts appends the surface forms of tokens to dst.
func AppendTexts(dst []string, tokens []Token) []string {
	for _, t := range tokens {
		dst = append(dst, t.Text)
	}
	return dst
}

// Tags returns the tags of tokens.
func Tags(tokens []Token) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = t.Tag
	}
	return out
}
