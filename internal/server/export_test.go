package server

import (
	"sync"

	"intellog/internal/conformance"
	"intellog/internal/logging"
)

// memo holds results every test in the binary may share — generated
// corpora, saved models, references — each computed once however many
// tests read it.
var memo sync.Map // key → *memoEntry

type memoEntry struct {
	once sync.Once
	v    any
}

// ScrapeValue reads one series' sample off a daemon's /metrics.
var ScrapeValue = scrapeValue

// Memoize returns the value cached under key, computing it on first use.
func Memoize[T any](key string, compute func() T) T {
	e, _ := memo.LoadOrStore(key, new(memoEntry))
	me := e.(*memoEntry)
	me.once.Do(func() { me.v = compute() })
	v, _ := me.v.(T) // zero if compute failed its test
	return v
}

// CorpusFor returns spec's records, generated once per test binary.
// Callers must not modify them.
func CorpusFor(spec conformance.Spec) []logging.Record {
	return Memoize("corpus/"+spec.Name, func() []logging.Record { return spec.Generate().Records })
}
