// Package core is the IntelLog facade (Fig. 2): it wires the four stages —
// log-key extraction (spell), information extraction (extract), HW-graph
// modeling (group + hwgraph) and anomaly detection (detect) — behind a
// Train/Detect API.
package core

import (
	"time"

	"intellog/internal/detect"
	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// Config controls training.
type Config struct {
	// SpellThreshold is Spell's matching threshold t (§5 sets 1.7).
	// Values ≤ 1 use spell.DefaultThreshold.
	SpellThreshold float64
	// DisableHierarchyCheck turns off lifespan-relation checking during
	// detection (ablation).
	DisableHierarchyCheck bool
	// DisableMissingGroupCheck turns off expected-group presence checking
	// during detection (ablation).
	DisableMissingGroupCheck bool
	// DisableCriticalKeys treats no Intel Key as critical during detection
	// (ablation of the Fig. 5 critical marking).
	DisableCriticalKeys bool
}

// Model is a trained IntelLog model for one targeted system.
type Model struct {
	// Parser is the trained Spell instance.
	Parser *spell.Parser
	// Keys maps Intel Key ID → Intel Key.
	Keys map[int]*extract.IntelKey
	// Graph is the HW-graph.
	Graph *hwgraph.Graph
	// KeyGroups maps Intel Key ID → entity group names.
	KeyGroups map[int][]string

	cfg Config
	// lookup memoizes raw message → Spell key across binding and
	// detection; sound because the parser stops consuming after training.
	lookup *spell.LookupCache
}

// Train runs the full training pipeline over normal-execution sessions.
func Train(sessions []*logging.Session, cfg Config) *Model {
	parser := spell.NewParser(cfg.SpellThreshold)

	// Stage 1: stream every message through Spell. Renderings repeat
	// heavily, so the token split is memoized by raw text (Consume copies
	// what it keeps, making the shared slices safe). The memo keeps the
	// full token split so stage 3 never tokenizes the same rendering
	// twice.
	type memoEntry struct {
		toks  []nlp.Token
		texts []string
	}
	memo := make(map[string]*memoEntry, 1024)
	for _, s := range sessions {
		for i := range s.Records {
			msg := s.Records[i].Message
			e, ok := memo[msg]
			if !ok {
				toks := nlp.Tokenize(msg)
				e = &memoEntry{toks: toks, texts: nlp.Texts(toks)}
				memo[msg] = e
			}
			parser.Consume(e.texts)
		}
	}

	// Stage 2: build Intel Keys (independent per key — parallel).
	keys := buildIntelKeys(parser.Keys())
	keyIndex := map[int]*extract.IntelKey{}
	for _, ik := range keys {
		keyIndex[ik.ID] = ik
	}

	// Stage 3: HW-graph modeling. Binding each session to Intel Messages
	// is independent per session (parallel); the graph builder itself
	// folds sessions sequentially, in input order, for determinism.
	//
	// The parser is frozen after stage 1, so the lookup cache can be
	// warmed from the stage-1 memo up front: every distinct rendering is
	// tokenized, looked up and bound exactly once, and the parallel
	// binding workers below run almost entirely on cache hits.
	builder := hwgraph.NewBuilder(keys)
	cache := spell.NewLookupCache(0)
	for msg, e := range memo {
		k := parser.Lookup(e.texts)
		cl := &extract.CachedLookup{}
		if k == nil {
			cl.Tokens = e.toks // only unmatched renderings are split again
		} else if ik := keyIndex[k.ID]; ik != nil && ik.NaturalLanguage {
			cl.Proto = extract.Bind(ik, e.toks, time.Time{}, "", msg)
			cl.Proto.IdentifierSet()
			cl.Proto.IdentifierTypes()
			cl.Proto.TypeSignature() // precompute; shared by every copy
		}
		cache.AddAux(msg, k, cl)
	}
	for _, msgs := range bindSessions(parser, keyIndex, cache, sessions) {
		builder.AddSession(msgs)
	}

	return &Model{
		Parser:    parser,
		Keys:      keyIndex,
		Graph:     builder.Graph(),
		KeyGroups: builder.KeyGroups,
		cfg:       cfg,
		lookup:    cache,
	}
}

// BindSession converts a session's records to Intel Messages using the
// trained keys, skipping unmatched and non-NL messages.
func BindSession(parser *spell.Parser, keys map[int]*extract.IntelKey, s *logging.Session) []*extract.Message {
	return BindSessionCached(parser, keys, nil, s)
}

// BindSessionCached is BindSession with a raw-message lookup cache: the
// first occurrence of a rendering tokenizes, looks up and binds as usual
// and caches the result; every repeat either skips the record outright
// (unmatched or non-NL key) or shallow-copies the cached bound prototype.
// cache may be nil.
func BindSessionCached(parser *spell.Parser, keys map[int]*extract.IntelKey, cache *spell.LookupCache, s *logging.Session) []*extract.Message {
	var msgs []*extract.Message
	var rb extract.Rebinder
	for i := range s.Records {
		rec := &s.Records[i]
		if cache != nil {
			if k, aux, hit := cache.GetAux(rec.Message); hit {
				if k == nil {
					continue
				}
				if cl, ok := aux.(*extract.CachedLookup); ok && cl != nil {
					if cl.Proto != nil {
						msgs = append(msgs, rb.Rebind(cl.Proto, rec.Time, s.ID))
					}
					continue
				}
				// Entry without a memo (added via plain Add): fall through
				// and rebuild it below.
			}
		}
		tokens := nlp.Tokenize(rec.Message)
		k := parser.Lookup(nlp.Texts(tokens))
		cl := &extract.CachedLookup{}
		if k == nil {
			cl.Tokens = tokens // only unmatched renderings are split again
		} else if ik := keys[k.ID]; ik != nil && ik.NaturalLanguage {
			cl.Proto = extract.Bind(ik, tokens, time.Time{}, "", rec.Message)
			cl.Proto.IdentifierSet()
			cl.Proto.IdentifierTypes()
			cl.Proto.TypeSignature() // precompute; shared by every copy
			msgs = append(msgs, rb.Rebind(cl.Proto, rec.Time, s.ID))
		}
		if cache != nil {
			cache.AddAux(rec.Message, k, cl)
		}
	}
	return msgs
}

// Messages converts sessions to Intel Messages with the trained model
// (for storage and querying).
func (m *Model) Messages(sessions []*logging.Session) []*extract.Message {
	var out []*extract.Message
	for _, s := range sessions {
		out = append(out, BindSessionCached(m.Parser, m.Keys, m.lookup, s)...)
	}
	return out
}

// Detector returns the anomaly detector configured per the model's
// training config.
func (m *Model) Detector() *detect.Detector {
	d := detect.NewDetector(m.Parser, m.Keys, m.KeyGroups, m.Graph)
	// Share the model's lookup cache: training, binding and detection see
	// the same parser, so memoized lookups are interchangeable.
	if m.lookup != nil {
		d.Cache = m.lookup
	}
	d.CheckHierarchy = !m.cfg.DisableHierarchyCheck
	d.CheckMissingGroups = !m.cfg.DisableMissingGroupCheck
	if m.cfg.DisableCriticalKeys {
		for _, node := range m.Graph.Nodes {
			for _, sub := range node.Subroutines {
				for k := range sub.Critical {
					sub.Critical[k] = false
				}
			}
		}
	}
	return d
}

// Detect checks sessions against the trained model.
func (m *Model) Detect(sessions []*logging.Session) *detect.Report {
	return m.Detector().Detect(sessions)
}
