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
	// lookup memoizes raw message → Spell key and Algorithm-2 prototype
	// once the parser is frozen (after training); Messages never reads it.
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
		proto *extract.Message // stage 3's Algorithm-2 prototype, if NL
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

	// Stage 3: HW-graph modeling. The parser is frozen after stage 1, so
	// every distinct rendering is looked up and bound exactly once, into
	// the stage-1 memo and the lookup cache detection starts from. The
	// builder reads only key IDs and identifier caches, so it folds the
	// shared Algorithm-2 prototypes, session by session in input order.
	builder := hwgraph.NewBuilder(keys)
	cache := spell.NewLookupCache(0)
	for msg, e := range memo {
		k := parser.Lookup(e.texts)
		if k == nil {
			// An unmatched rendering's memo carries its bound ad-hoc
			// extraction, which needs the detector's group table: the
			// detector publishes it on first sight.
			continue
		}
		cl := &extract.CachedLookup{}
		if ik := keyIndex[k.ID]; ik != nil && ik.NaturalLanguage {
			cl.Proto = extract.BindProto(ik, e.toks, msg)
			e.proto = cl.Proto
		}
		cache.AddAux(msg, k, cl)
	}
	var msgs []*extract.Message
	for _, s := range sessions {
		msgs = msgs[:0]
		for i := range s.Records {
			if p := memo[s.Records[i].Message].proto; p != nil {
				msgs = append(msgs, p)
			}
		}
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

// BindSession converts a session's records to full Intel Messages —
// identifier, value and locality maps — using the trained keys, skipping
// unmatched and non-NL messages.
func BindSession(parser *spell.Parser, keys map[int]*extract.IntelKey, s *logging.Session) []*extract.Message {
	return bindFull(parser, keys, map[string]*extract.Message{}, s)
}

// bindFull is BindSession over a memo of bound messages by raw text (nil
// for a rendering that yields none). The memo belongs to one call: the
// shared lookup cache holds Algorithm-2 prototypes, which lack the maps.
func bindFull(parser *spell.Parser, keys map[int]*extract.IntelKey, memo map[string]*extract.Message, s *logging.Session) []*extract.Message {
	var msgs []*extract.Message
	var rb extract.Rebinder
	for i := range s.Records {
		rec := &s.Records[i]
		proto, ok := memo[rec.Message]
		if !ok {
			toks := nlp.Tokenize(rec.Message)
			if k := parser.Lookup(nlp.Texts(toks)); k != nil {
				if ik := keys[k.ID]; ik != nil && ik.NaturalLanguage {
					proto = extract.Bind(ik, toks, time.Time{}, "", rec.Message)
					proto.IdentifierSet() // cache once; every copy shares it
					proto.TypeSignature()
				}
			}
			memo[rec.Message] = proto
		}
		if proto != nil {
			msgs = append(msgs, rb.Rebind(proto, rec.Time, s.ID))
		}
	}
	return msgs
}

// Messages converts sessions to full Intel Messages with the trained
// model (for storage and querying), as BindSession does.
func (m *Model) Messages(sessions []*logging.Session) []*extract.Message {
	memo := map[string]*extract.Message{}
	var out []*extract.Message
	for _, s := range sessions {
		out = append(out, bindFull(m.Parser, m.Keys, memo, s)...)
	}
	return out
}

// Detector returns the anomaly detector configured per the model's
// training config.
func (m *Model) Detector() *detect.Detector {
	d := detect.NewDetector(m.Parser, m.Keys, m.KeyGroups, m.Graph)
	// Share the model's lookup cache: training and detection see the same
	// parser and publish the same memo form, so entries are interchangeable.
	d.Cache = m.lookup
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
	return m.Detector().DetectParallel(sessions, 0)
}
