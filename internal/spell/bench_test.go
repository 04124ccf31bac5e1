package spell_test

// Microbenchmarks for the Spell matching layer, each run for the indexed
// matcher and the seed (naive) reference so the win is visible in one
// `go test -bench` invocation:
//
//	go test -bench 'Consume|Lookup|Cache' -benchmem ./internal/spell/
//
// BenchmarkConsumeColdStart measures training from an empty parser (the
// LCS merge path dominates); BenchmarkLookupSteadyState measures the
// detection-phase positional lookup on a trained parser; the cache
// benchmarks isolate LookupCache hit and miss costs.

import (
	"fmt"
	"testing"

	"intellog/internal/spell"
)

// benchCorpus synthesizes a log stream shaped like the simulated
// analytics corpora: ~40 distinct templates, each rendered with varying
// identifier fields, interleaved.
func benchCorpus(n int) [][]string {
	templates := []string{
		"fetcher#%d about to shuffle output of map attempt_%d",
		"fetcher#%d read %d bytes from map-output for attempt_%d",
		"host%d:13562 freed by fetcher#%d in %dms",
		"Got assigned task %d",
		"Starting task %d in stage %d TID %d",
		"Finished task %d in stage %d TID %d in %d ms",
		"Registering block manager host%d:%d",
		"Added broadcast_%d_piece%d in memory on host%d:%d",
		"Launching container container_%d_%d for application_%d",
		"Progress of TaskAttempt attempt_%d is %d",
		"Reduce slow start threshold reached scheduling %d reducers",
		"Task attempt_%d is done and is in the process of committing",
		"Saved output of task attempt_%d to hdfs://out/%d",
		"Received completed container container_%d_%d",
		"Assigned container container_%d_%d to attempt_%d",
		"Starting executor ID %d on host host%d",
		"Removed broadcast_%d_piece%d on host%d:%d in memory",
		"Submitting %d missing tasks from stage %d",
		"Lost executor %d on host%d heartbeat timed out",
		"Shuffle files lost for executor %d on host%d",
	}
	var out [][]string
	i := 0
	for len(out) < n {
		for _, tpl := range templates {
			msg := fmt.Sprintf(tpl, i%7, i*31%1000, i%13, i*17%500)
			out = append(out, toksOf(msg))
			i++
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func toksOf(msg string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(msg); i++ {
		if i == len(msg) || msg[i] == ' ' {
			if start >= 0 {
				out = append(out, msg[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// matcher is what the benchmarks drive: the indexed Parser or the seed
// reference.
type matcher interface {
	Consume(tokens []string) *spell.Key
	Lookup(tokens []string) *spell.Key
}

func BenchmarkConsumeColdStart(b *testing.B) {
	corpus := benchCorpus(2000)
	for _, bc := range []struct {
		name string
		mk   func() matcher
	}{
		{"indexed", func() matcher { return spell.NewParser(0) }},
		{"naive", func() matcher { return spell.NewNaiveParser(0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := bc.mk()
				for _, m := range corpus {
					p.Consume(m)
				}
			}
			b.ReportMetric(float64(len(corpus)), "msgs")
		})
	}
}

func BenchmarkLookupSteadyState(b *testing.B) {
	corpus := benchCorpus(2000)
	for _, bc := range []struct {
		name string
		mk   func() matcher
	}{
		{"indexed", func() matcher { return spell.NewParser(0) }},
		{"naive", func() matcher { return spell.NewNaiveParser(0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := bc.mk()
			for _, m := range corpus {
				p.Consume(append([]string(nil), m...))
			}
			// Later merges can change a key's length, so not every trained
			// message still matches; bench over the ones that do (the
			// steady-state detection case).
			var matching [][]string
			for _, m := range corpus {
				if p.Lookup(m) != nil {
					matching = append(matching, m)
				}
			}
			if len(matching) == 0 {
				b.Fatal("no trained message matches")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Lookup(matching[i%len(matching)]) == nil {
					b.Fatal("matching message failed to match")
				}
			}
		})
	}
}

func BenchmarkLookupCacheHit(b *testing.B) {
	corpus := benchCorpus(256)
	p := spell.NewParser(0)
	c := spell.NewLookupCache(0)
	msgs := make([]string, len(corpus))
	for i, m := range corpus {
		k := p.Consume(append([]string(nil), m...))
		msgs[i] = fmt.Sprint(m)
		c.AddAux(msgs[i], k, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, hit := c.GetAux(msgs[i%len(msgs)]); !hit {
			b.Fatal("expected hit")
		}
	}
}

func BenchmarkLookupCacheMiss(b *testing.B) {
	c := spell.NewLookupCache(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := fmt.Sprintf("never seen message %d", i)
		if _, _, hit := c.GetAux(msg); hit {
			b.Fatal("unexpected hit")
		}
		c.AddAux(msg, nil, nil)
	}
}
