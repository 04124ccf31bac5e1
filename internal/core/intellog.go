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
	"intellog/internal/par"
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
// Every stage whose result does not depend on record order runs on
// par.Workers() goroutines; Spell's Consume and the per-session
// bookkeeping stay in record order, so the model does not depend on
// scheduling.
func Train(sessions []*logging.Session, cfg Config) *Model {
	parser := spell.NewParser(cfg.SpellThreshold)
	workers := par.Workers()

	// Stage 1: stream every message through Spell. Renderings repeat
	// heavily, so each distinct rendering is indexed in first-seen order
	// and tokenized once, in parallel; every record then refers to its
	// rendering by index. Consume stays sequential: Spell's key
	// refinement depends on record order, and a later Consume can move a
	// rendering to another key, so repeats are consumed too (Consume
	// copies what it keeps, making the shared slices safe).
	index := make(map[string]int32, 1024)
	var distinct []string
	var recs []int32 // per record, in order: its rendering's index
	for _, s := range sessions {
		for i := range s.Records {
			msg := s.Records[i].Message
			j, ok := index[msg]
			if !ok {
				j = int32(len(distinct))
				index[msg] = j
				distinct = append(distinct, msg)
			}
			recs = append(recs, j)
		}
	}
	toks := make([][]nlp.Token, len(distinct))
	texts := make([][]string, len(distinct))
	stride(len(distinct), workers, func(i int) {
		toks[i] = nlp.Tokenize(distinct[i])
		texts[i] = nlp.Texts(toks[i])
	})
	for _, j := range recs {
		parser.Consume(texts[j])
	}

	// Stage 2: build Intel Keys (independent per key — parallel).
	keys := buildIntelKeys(parser.Keys())
	keyIndex := map[int]*extract.IntelKey{}
	for _, ik := range keys {
		keyIndex[ik.ID] = ik
	}

	// Stage 3: HW-graph modeling. The parser is frozen after stage 1, so
	// every distinct rendering is looked up and bound exactly once, in
	// parallel, into the lookup cache detection starts from. An
	// unmatched rendering's memo carries its bound ad-hoc extraction,
	// which needs the detector's group table: the detector publishes it
	// on first sight. The builder folds the same shared Algorithm-2
	// prototypes.
	matched := make([]*spell.Key, len(distinct))
	protos := make([]*extract.Proto, len(distinct))
	stride(len(distinct), workers, func(i int) {
		k := parser.Lookup(texts[i])
		if k == nil {
			return
		}
		matched[i] = k
		if ik := keyIndex[k.ID]; ik != nil && ik.NaturalLanguage {
			protos[i] = extract.BindProto(ik, toks[i], distinct[i])
		}
	})
	// The lookup cache is filled in first-seen order, so its contents do
	// not depend on scheduling, on its own goroutine beside the per-session
	// bookkeeping and the group fold, which never read it.
	cache := spell.NewLookupCache(0)
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		for i, k := range matched {
			if k != nil {
				cache.AddAux(distinct[i], k, &extract.CachedLookup{Proto: protos[i]})
			}
		}
	}()
	builder := hwgraph.NewBuilder(keys)
	var msgs []*extract.Proto
	for _, s := range sessions {
		msgs = msgs[:0]
		for _, j := range recs[:len(s.Records)] {
			if p := protos[j]; p != nil {
				msgs = append(msgs, p)
			}
		}
		recs = recs[len(s.Records):]
		builder.AddSession(msgs)
	}

	graph := builder.Graph()
	<-filled
	return &Model{
		Parser:    parser,
		Keys:      keyIndex,
		Graph:     graph,
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
