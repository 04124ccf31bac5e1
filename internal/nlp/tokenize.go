package nlp

import (
	"strings"
	"unicode"
)

// Tokenize splits a log message into tokens. It differs from a free-text
// tokenizer in what it keeps intact: identifiers ("attempt_01",
// "fetcher#1"), host:port pairs, IP addresses, filesystem and HDFS paths,
// URLs, decimal numbers ("1.0", "12,345") and size/duration literals stay
// single tokens, because downstream stages classify whole variable fields.
// Surrounding punctuation ([], (), quotes, trailing sentence punctuation)
// is stripped and emitted as SYM tokens so token positions still cover the
// full message.
func Tokenize(msg string) []Token {
	// One up-front allocation sized for the common case of a field per
	// token plus a little punctuation.
	n := 1 + strings.Count(msg, " ")
	return AppendTokens(make([]Token, 0, n+n/4+2), msg)
}

// AppendTokens is Tokenize appending to tokens, so a caller that owns a
// buffer splits a message without allocating once the buffer has grown.
func AppendTokens(tokens []Token, msg string) []Token {
	start := -1
	for i := 0; i <= len(msg); i++ {
		if i == len(msg) || asciiSpace(msg[i]) {
			if start >= 0 {
				tokens = appendFieldTokens(tokens, msg[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return tokens
}

// asciiSpace matches the whitespace bytes strings.Fields splits on for
// ASCII input (log messages are ASCII; multi-byte whitespace does not
// occur in the corpora).
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// TokenizeWords is Tokenize with punctuation tokens removed; convenient for
// callers that only care about words (POS patterns, grouping).
func TokenizeWords(msg string) []Token {
	all := Tokenize(msg)
	out := all[:0]
	for _, t := range all {
		if t.Tag != TagSYM {
			out = append(out, t)
		}
	}
	return out
}

// appendFieldTokens splits one whitespace-delimited field into tokens.
// All emitted token texts are substrings of field, so the split never
// allocates beyond growing the output slice.
func appendFieldTokens(tokens []Token, field string) []Token {
	// Strip and emit leading bracket punctuation.
	for len(field) > 0 {
		switch field[0] {
		case '[', '(', '{', '"', '\'', '<':
			tokens = append(tokens, Token{Text: field[:1], Tag: TagSYM})
			field = field[1:]
			continue
		}
		break
	}
	// Strip trailing punctuation; it stays a suffix of field and is
	// emitted byte-by-byte after the word, in original order.
	end := len(field)
	for end > 0 {
		// '.' and ':' are structural only mid-token (decimals, versions,
		// host:port); at the end of a field they are sentence punctuation.
		switch field[end-1] {
		case ']', ')', '}', '"', '\'', '>', ',', ';', '!', '?', '.', ':':
			end--
			continue
		}
		break
	}
	trailing := field[end:]
	if field = field[:end]; field != "" {
		tokens = appendInnerPunct(tokens, field)
	}
	for i := 0; i < len(trailing); i++ {
		tokens = append(tokens, Token{Text: trailing[i : i+1], Tag: TagSYM})
	}
	return tokens
}

// appendInnerPunct handles fields with internal structure. Atomic fields
// (identifiers, paths, host:port, IPs, numbers, URLs) are kept whole;
// "word=value" splits on '=' so both sides are classified independently.
func appendInnerPunct(tokens []Token, field string) []Token {
	// "key=value" splits first — identifiers like "records_read=332015"
	// must expose the constant key and the variable value separately, or
	// every rendering becomes a distinct token.
	if i := strings.IndexByte(field, '='); i > 0 && i < len(field)-1 && !strings.Contains(field, "://") {
		tokens = appendInnerPunct(tokens, field[:i])
		tokens = append(tokens, Token{Text: "=", Tag: TagSYM})
		return appendInnerPunct(tokens, field[i+1:])
	}
	// "word#number" splits into word, #, number — the paper's Fig. 1 shows
	// "fetcher#1" tokenized as "fetcher # 1", which lets the word join
	// entity phrases while the number remains an identifier field.
	if i := strings.IndexByte(field, '#'); i > 0 && i < len(field)-1 &&
		isAlphaOnly(field[:i]) && allDigitsStr(field[i+1:]) {
		return append(tokens,
			Token{Text: field[:i]},
			Token{Text: field[i : i+1], Tag: TagSYM},
			Token{Text: field[i+1:]},
		)
	}
	return append(tokens, Token{Text: field})
}

func isAlphaOnly(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) {
			return false
		}
	}
	return true
}

func allDigitsStr(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// isAtomicField reports whether field should never be split further.
func isAtomicField(field string) bool {
	if strings.Contains(field, "://") || strings.HasPrefix(field, "/") {
		return true // URL or absolute path
	}
	if strings.ContainsAny(field, "_#") {
		return true // identifier convention: attempt_01, fetcher#1
	}
	if isHostPort(field) || isIPAddr(field) {
		return true
	}
	if hasDigit(field) && !strings.Contains(field, "=") {
		return true // mixed alphanumerics, versions, decimals
	}
	return false
}

func hasDigit(s string) bool {
	for _, r := range s {
		if unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

func hasLetter(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// isHostPort reports whether s looks like "host:port" or "ip:port".
func isHostPort(s string) bool {
	i := strings.LastIndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return false
	}
	port := s[i+1:]
	for _, r := range port {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	host := s[:i]
	return hostLike(host)
}

// hostLike reports whether s could be a hostname or IP.
func hostLike(s string) bool {
	if s == "" {
		return false
	}
	if isIPAddr(s) {
		return true
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '-' && r != '.' {
			return false
		}
	}
	return unicode.IsLetter(rune(s[0]))
}

// isIPAddr reports whether s is a dotted-quad IPv4 address.
func isIPAddr(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return false
		}
		for _, r := range p {
			if !unicode.IsDigit(r) {
				return false
			}
		}
	}
	return true
}
