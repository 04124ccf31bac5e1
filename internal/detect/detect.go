// Package detect implements IntelLog's anomaly-detection phase (§4.2).
// For each incoming session it instantiates the trained HW-graph and
// reports two kinds of anomalies: unexpected log messages (no Intel Key
// matches) and erroneous HW-graph instances (missed critical Intel Keys,
// order violations, abnormal signatures, missing expected groups, or
// hierarchy violations). Unexpected messages additionally go through the
// §3 extraction pipeline so users can query their fields.
package detect

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/par"
	"intellog/internal/spell"
)

// Kind classifies an anomaly finding.
type Kind int

// Anomaly kinds. UnexpectedMessage corresponds to the paper's first
// category; the others are facets of "erroneous HW-graph instance".
const (
	UnexpectedMessage Kind = iota
	MissingCriticalKeys
	OrderViolation
	UnknownSignature
	MissingGroup
	HierarchyViolation
	// Overflow is a streaming-only finding: a session hit a configured
	// resource cap (max buffered messages, or max in-flight sessions) and
	// was degraded — further messages dropped, or the session force-closed
	// early. It marks results that may be partial rather than a fault in
	// the monitored system itself.
	Overflow
)

var kindNames = [...]string{
	"unexpected-message", "missing-critical-keys", "order-violation",
	"unknown-signature", "missing-group", "hierarchy-violation",
	"overflow",
}

// String returns the kebab-case kind name.
func (k Kind) String() string {
	if k < UnexpectedMessage || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Anomaly is one finding in one session.
type Anomaly struct {
	// Seq is a monotonically increasing sequence number stamped by the
	// streaming detector on every anomaly it emits (Consume, CloseSession
	// and Flush alike); batch detection leaves it zero. It gives callers a
	// stable ordering handle across calls — the cursor of the serving
	// layer's /v1/anomalies endpoint — and survives checkpoint/restore
	// (see StreamState.NextAnomalySeq). Excluded from JSON so the
	// conformance oracle's canonical report form stays byte-identical
	// across execution paths.
	Seq uint64 `json:"-"`
	// At is the anomaly's event time: the offending record's timestamp
	// for unexpected messages, the session's newest record time for the
	// end-of-session structural findings. It is derived purely from the
	// records (never from the wall clock), so batch and streaming runs
	// stamp identical times — the analytics layer's time-bucketed rollups
	// rely on that. Excluded from JSON for the same reason Seq is: the
	// canonical report form predates it.
	At        time.Time `json:"-"`
	Session   string
	Kind      Kind
	Group     string
	Signature string
	// Record is the offending log record (unexpected messages only).
	Record *logging.Record
	// Extracted is the §3 extraction applied to the unexpected message; it
	// carries the entities/identifiers/localities users query during
	// diagnosis (the paper's case study 1).
	Extracted *extract.Message
	// MissingKeys lists absent critical Intel Key IDs.
	MissingKeys []int
	// Pairs lists violated BEFORE relations (a should precede b).
	Pairs [][2]int
	// Detail is a human-readable summary.
	Detail string
}

// Report aggregates detection over a batch of sessions.
type Report struct {
	Sessions  int
	Anomalies []Anomaly
}

// ProblematicSessions returns the distinct session IDs with at least one
// anomaly, in first-appearance order.
func (r *Report) ProblematicSessions() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range r.Anomalies {
		if !seen[a.Session] {
			seen[a.Session] = true
			out = append(out, a.Session)
		}
	}
	return out
}

// ByKind returns the anomalies of one kind.
func (r *Report) ByKind(k Kind) []Anomaly {
	var out []Anomaly
	for _, a := range r.Anomalies {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// Summary renders an aggregate view: anomaly counts by kind and the
// affected entity groups, ordered by count.
func (r *Report) Summary() string {
	if len(r.Anomalies) == 0 {
		return fmt.Sprintf("%d sessions checked, no anomalies\n", r.Sessions)
	}
	kinds := map[Kind]int{}
	groups := map[string]int{}
	for _, a := range r.Anomalies {
		kinds[a.Kind]++
		if a.Group != "" {
			groups[a.Group]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d sessions checked, %d problematic, %d findings\n",
		r.Sessions, len(r.ProblematicSessions()), len(r.Anomalies))
	for k := UnexpectedMessage; int(k) < len(kindNames); k++ {
		if n := kinds[k]; n > 0 {
			fmt.Fprintf(&b, "  %-22s %d\n", k.String()+":", n)
		}
	}
	if len(groups) > 0 {
		names := make([]string, 0, len(groups))
		for g := range groups {
			names = append(names, g)
		}
		sort.Slice(names, func(i, j int) bool {
			if groups[names[i]] != groups[names[j]] {
				return groups[names[i]] > groups[names[j]]
			}
			return names[i] < names[j]
		})
		b.WriteString("  entity groups involved: ")
		for i, g := range names {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s (%d)", g, groups[g])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Detector checks sessions against a trained model.
type Detector struct {
	// Parser is the trained Spell instance (used via Lookup only).
	Parser *spell.Parser
	// Keys maps Intel Key ID → Intel Key.
	Keys map[int]*extract.IntelKey
	// KeyGroups maps Intel Key ID → entity groups.
	KeyGroups map[int][]string
	// Graph is the trained HW-graph.
	Graph *hwgraph.Graph

	// CheckHierarchy enables lifespan-relation checking (on by default via
	// NewDetector).
	CheckHierarchy bool
	// CheckMissingGroups enables expected-group presence checking.
	CheckMissingGroups bool

	// Cache memoizes raw message → Spell key and Algorithm-2 memo; it is
	// the only resolve memo. Detection streams repeat the same renderings
	// (heartbeats, retries), so most records skip the Tokenize+Lookup work
	// entirely. Never nil: NewDetector installs one.
	Cache *spell.LookupCache

	// scratch pools per-worker detection state (Algorithm 2 assigner,
	// group buckets, key-sequence buffers) across sessions; see
	// sessionScratch. Detectors must not be copied once detection starts.
	scratch sync.Pool

	// groupOnce lazily builds the entity→group attribution table and the
	// expected-group list from the (frozen) trained graph, replacing the
	// per-call sorted scans that dominated unexpected-message handling.
	groupOnce   sync.Once
	entityGroup map[string]string
	expected    []string
}

// sessionScratch is one detection worker's reusable state. Batch shards
// and stream finalizers check one session at a time, so everything here
// is sized by the widest session seen and reused for the rest of the
// worker's lifetime — the per-session map/slice churn that used to
// dominate the allocation profile is gone.
type sessionScratch struct {
	asn  hwgraph.Assigner
	msgs []*extract.Proto

	// Group buckets replace the per-session byGroup/spans maps. Buckets
	// are created once per distinct group name and invalidated by epoch
	// stamping, so a new session touches no map at all on the hot path:
	// keyBuckets resolves an Intel Key ID straight to its buckets.
	epoch      uint64
	buckets    map[string]*groupBucket
	keyBuckets [][]*groupBucket
	keyBuilt   []bool
	touched    []*groupBucket

	// seq and order back the per-instance key sequence and its
	// first-occurrence reduction.
	seq   []int
	order []int

	// toks and texts are the resolve stage's token split of a miss,
	// reused from one miss to the next.
	toks  []nlp.Token
	texts []string
}

// groupBucket collects one entity group's messages within one session.
type groupBucket struct {
	name  string
	epoch uint64
	msgs  []*extract.Proto
	span  hwgraph.Span
}

// getScratch hands out a pooled worker scratch.
func (d *Detector) getScratch() *sessionScratch {
	if v := d.scratch.Get(); v != nil {
		return v.(*sessionScratch)
	}
	return &sessionScratch{buckets: map[string]*groupBucket{}}
}

func (d *Detector) putScratch(scr *sessionScratch) { d.scratch.Put(scr) }

// bucketsFor resolves an Intel Key ID to the group buckets it feeds,
// building the per-key bucket list on first sight.
func (scr *sessionScratch) bucketsFor(d *Detector, keyID int) []*groupBucket {
	if keyID < 0 {
		return nil
	}
	for keyID >= len(scr.keyBuckets) {
		scr.keyBuckets = append(scr.keyBuckets, nil)
		scr.keyBuilt = append(scr.keyBuilt, false)
	}
	if !scr.keyBuilt[keyID] {
		var bs []*groupBucket
		for _, g := range d.KeyGroups[keyID] {
			b := scr.buckets[g]
			if b == nil {
				b = &groupBucket{name: g}
				scr.buckets[g] = b
			}
			bs = append(bs, b)
		}
		scr.keyBuckets[keyID] = bs
		scr.keyBuilt[keyID] = true
	}
	return scr.keyBuckets[keyID]
}

// NewDetector assembles a Detector with all checks enabled.
func NewDetector(p *spell.Parser, keys map[int]*extract.IntelKey, keyGroups map[int][]string, g *hwgraph.Graph) *Detector {
	return &Detector{
		Parser: p, Keys: keys, KeyGroups: keyGroups, Graph: g,
		CheckHierarchy: true, CheckMissingGroups: true,
		Cache: spell.NewLookupCache(0),
	}
}

// lookupRecord resolves a record's Spell key through the cache,
// memoizing the Algorithm-2 prototype per raw message, so a repeat
// rendering costs a cache probe. A miss resolves through resolveMiss.
// The returned memo is shared and read-only.
func (d *Detector) lookupRecord(rec *logging.Record, scr *sessionScratch) (key *spell.Key, cl *extract.CachedLookup) {
	if k, aux, hit := d.Cache.GetAux(rec.Message); hit {
		return k, aux.(*extract.CachedLookup) // every publisher stores one
	}
	return d.resolveMiss(rec.Message, scr)
}

// resolveMiss is the one resolve path of a rendering the cache does not
// hold: tokenize into scr's buffers, Spell lookup, bind the prototype
// (or the ad-hoc extraction of an unmatched message), and publish the
// memo to the cache.
func (d *Detector) resolveMiss(msg string, scr *sessionScratch) (key *spell.Key, cl *extract.CachedLookup) {
	scr.toks = nlp.AppendTokens(scr.toks[:0], msg)
	scr.texts = nlp.AppendTexts(scr.texts[:0], scr.toks)
	key = d.Parser.Lookup(scr.texts)
	cl = &extract.CachedLookup{}
	if key == nil {
		// Unmatched rendering: every repeat becomes an unexpected-message
		// anomaly, so bind its ad-hoc extraction once here instead of once
		// per record in unexpected (which used to dominate the allocation
		// profile on anomaly-heavy streams).
		d.buildAdhoc(msg, scr.toks, cl)
	} else if ik := d.Keys[key.ID]; ik != nil && ik.NaturalLanguage {
		cl.Proto = extract.BindProto(ik, scr.toks, msg)
	}
	if cap(scr.toks) > 1<<10 {
		scr.toks, scr.texts = nil, nil // one huge record must not pin its split
	}
	d.Cache.AddAux(msg, key, cl)
	return key, cl
}

// buildAdhoc fills cl's unexpected-message memo for an unmatched raw
// message: the ad-hoc Intel Key's bound extraction, its entity-group
// attribution, and the summary line. Everything here depends only on the
// text (the group table is frozen with the graph), so it runs once per
// distinct rendering and unexpected copies the result per record.
func (d *Detector) buildAdhoc(msg string, toks []nlp.Token, cl *extract.CachedLookup) {
	texts := nlp.Texts(toks)
	adhoc := &spell.Key{ID: -1, Tokens: texts, Sample: texts}
	ik := extract.BuildIntelKey(adhoc)
	// Attribute the message to a trained entity group — the paper's
	// diagnosis flow groups unexpected messages by entity ("all of the
	// unexpected messages belong to the 'fetcher' entity group"). The
	// operation's subject is the acting component, so it wins over other
	// extracted entities.
	grp := ""
	for _, op := range ik.Operations {
		if op.Subject != "" {
			if n := d.findGroupOf(op.Subject); n != "" {
				grp = n
				break
			}
		}
	}
	if grp == "" {
		for _, e := range ik.Entities {
			if n := d.findGroupOf(e); n != "" {
				grp = n
				break
			}
		}
	}
	if grp == "" && len(ik.Entities) > 0 {
		grp = ik.Entities[0]
	}
	cl.Adhoc = extract.Bind(ik, toks, time.Time{}, "", msg)
	cl.AdhocGroup = grp
	cl.AdhocDetail = fmt.Sprintf("no Intel Key matches %q", msg)
}

// Strip drops from an unexpected-message anomaly that keeps its record
// the two fields Render rebuilds from that record, Extracted and
// Detail, and reports whether it did. A retained anomaly so holds its
// record, not the rendering's memo. Any other anomaly is left as is.
func Strip(a *Anomaly) bool {
	if a.Kind != UnexpectedMessage || a.Record == nil {
		return false
	}
	a.Extracted, a.Detail = nil, ""
	return true
}

// Render fills back what Strip dropped, byte for byte as unexpected
// emitted it: both are pure functions of the record's text and the
// frozen model. It takes the rendering's memo when the cache still
// holds it and otherwise builds the ad-hoc extraction afresh, and it
// has no side effect on the cache: the probe counts nothing and marks
// nothing visited, and a rebuilt memo is not published. An anomaly
// Strip would not touch is left as is.
func (d *Detector) Render(a *Anomaly) {
	if a.Kind != UnexpectedMessage || a.Record == nil {
		return
	}
	msg := a.Record.Message
	_, _, aux, _ := d.Cache.Peek([]byte(msg))
	cl, _ := aux.(*extract.CachedLookup) // nil on a miss
	if cl == nil || cl.Adhoc == nil {
		cl = new(extract.CachedLookup)
		d.buildAdhoc(msg, nlp.Tokenize(msg), cl)
	}
	r := d.unexpected(a.Session, a.Record, cl)
	a.Extracted, a.Detail = r.Extracted, r.Detail
}

// DetectSession checks one session and returns its anomalies.
func (d *Detector) DetectSession(s *logging.Session) []Anomaly {
	scr := d.getScratch()
	defer d.putScratch(scr)
	return d.detectSession(s, scr)
}

// detectSession is DetectSession over caller-owned worker scratch.
// Structural checks consume the shared prototypes directly — the
// instance checks read only rendering-derived fields (key ID, identifier
// values and types), so no per-record message copy is made.
func (d *Detector) detectSession(s *logging.Session, scr *sessionScratch) []Anomaly {
	var anomalies []Anomaly
	msgs := scr.msgs[:0]

	// last is the newest record time seen in the session: the event time
	// stamped on the end-of-session structural anomalies. The streaming
	// path tracks the same maximum in sessionBuf.last, so both paths
	// stamp identical times.
	var last time.Time
	for i := range s.Records {
		rec := &s.Records[i]
		if rec.Time.After(last) {
			last = rec.Time
		}
		key, cl := d.lookupRecord(rec, scr)
		if key == nil {
			anomalies = append(anomalies, d.unexpected(s.ID, rec, cl))
			continue
		}
		if cl.Proto == nil {
			// §5: matched non-NL keys are on the ignore list — matching one
			// never triggers an unexpected-message error.
			continue
		}
		msgs = append(msgs, cl.Proto)
	}
	scr.msgs = msgs

	anomalies = append(anomalies, d.checkInstances(s.ID, last, msgs, scr)...)
	return anomalies
}

// DetectParallel is batch detection, sharded across sessions: shard w
// checks sessions w, w+shards, w+2·shards, … with worker-local scratch,
// and the merge appends per-session findings in input order — so the
// report is byte-identical at every shard count (the conformance oracle
// proves serial == parallel(2, 8, par.Workers()) on every corpus).
// shards ≤ 0 uses par.Workers() shards. Each shard is a real goroutine even beyond the
// CPU count, so oversubscribed counts still exercise the concurrent paths.
func (d *Detector) DetectParallel(sessions []*logging.Session, shards int) *Report {
	if shards <= 0 {
		shards = par.Workers()
	}
	if shards > len(sessions) {
		shards = len(sessions)
	}
	r := &Report{Sessions: len(sessions)}
	perSession := make([][]Anomaly, len(sessions))
	par.ForEach(shards, shards, func(w int) {
		scr := d.getScratch()
		defer d.putScratch(scr)
		for i := w; i < len(sessions); i += shards {
			perSession[i] = d.detectSession(sessions[i], scr)
		}
	})
	for _, anomalies := range perSession {
		r.Anomalies = append(r.Anomalies, anomalies...)
	}
	return r
}

// unexpected builds the UnexpectedMessage anomaly of rec from its
// rendering's memo: one Message copy of the bound ad-hoc extraction,
// stamped with the record's time, session and text and sharing the
// memo's maps. The anomaly keeps rec, so the caller passes a record it
// does not reuse.
func (d *Detector) unexpected(session string, rec *logging.Record, cl *extract.CachedLookup) Anomaly {
	m := new(extract.Message)
	*m = *cl.Adhoc
	m.Time, m.Session, m.Raw = rec.Time, session, rec.Message
	return Anomaly{
		At:      rec.Time,
		Session: session, Kind: UnexpectedMessage, Group: cl.AdhocGroup,
		Record: rec, Extracted: m,
		Detail: cl.AdhocDetail,
	}
}

// findGroupOf returns the trained group containing an entity phrase,
// via a table precomputed from the frozen graph. An entity listed under
// several groups resolves to the lexically smallest group name — the
// same answer the original sorted per-call scan produced, which the
// conformance oracle pins (iterating the node map directly once made
// the attribution nondeterministic).
func (d *Detector) findGroupOf(entity string) string {
	d.groupOnce.Do(d.buildGroupIndex)
	return d.entityGroup[entity]
}

// expectedGroups caches Graph.ExpectedGroups (sorted, frozen with the
// graph) so the per-session presence check allocates nothing.
func (d *Detector) expectedGroups() []string {
	d.groupOnce.Do(d.buildGroupIndex)
	return d.expected
}

// buildGroupIndex precomputes entity→group attribution and the
// expected-group list. Runs once; the graph is frozen during detection.
func (d *Detector) buildGroupIndex() {
	names := make([]string, 0, len(d.Graph.Nodes))
	for name := range d.Graph.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	idx := make(map[string]string)
	for _, name := range names {
		for _, e := range d.Graph.Nodes[name].Entities {
			if _, ok := idx[e]; !ok {
				idx[e] = name
			}
		}
	}
	d.entityGroup = idx
	d.expected = d.Graph.ExpectedGroups()
}

// checkInstances verifies the session's HW-graph instance: per-group
// subroutine instances against trained subroutines, expected-group
// presence, and lifespan-relation consistency. scr is the calling
// worker's scratch; checkInstances consumes each group's instances
// before assigning the next group, so assigner reuse is safe. last is
// the session's newest record time, stamped as the event time of every
// structural finding.
func (d *Detector) checkInstances(session string, last time.Time, msgs []*extract.Proto, scr *sessionScratch) []Anomaly {
	var anomalies []Anomaly

	// Bucket messages by entity group. Epoch stamping invalidates the
	// previous session's buckets without clearing (or allocating) any map:
	// a key ID resolves straight to its buckets through keyBuckets.
	scr.epoch++
	touched := scr.touched[:0]
	for idx, m := range msgs {
		for _, b := range scr.bucketsFor(d, m.KeyID()) {
			if b.epoch != scr.epoch {
				b.epoch = scr.epoch
				b.msgs = b.msgs[:0]
				b.span = hwgraph.Span{First: idx, Last: idx}
				touched = append(touched, b)
			} else {
				b.span.Last = idx
			}
			b.msgs = append(b.msgs, m)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i].name < touched[j].name })
	scr.touched = touched

	for _, gb := range touched {
		g := gb.name
		node := d.Graph.Nodes[g]
		if node == nil {
			continue
		}
		for _, inst := range scr.asn.Assign(gb.msgs) {
			sig := inst.Signature()
			sub := node.Subroutines[sig]
			if sub == nil {
				if len(node.Subroutines) > 0 {
					anomalies = append(anomalies, Anomaly{
						At:      last,
						Session: session, Kind: UnknownSignature, Group: g, Signature: sig,
						Detail: fmt.Sprintf("group %q has no trained subroutine with signature %q", g, sig),
					})
				}
				continue
			}
			seq := scr.seq[:0]
			for _, m := range inst.Msgs {
				seq = append(seq, m.KeyID())
			}
			scr.seq = seq
			// Reduce once; both checks consume the reduction (duplicates
			// carry no signal for either).
			order := hwgraph.FirstOccurrenceInto(scr.order[:0], seq)
			scr.order = order
			if missing := sub.MissingCritical(order); len(missing) > 0 {
				anomalies = append(anomalies, Anomaly{
					At:      last,
					Session: session, Kind: MissingCriticalKeys, Group: g, Signature: sig,
					MissingKeys: missing,
					Detail:      fmt.Sprintf("subroutine %q in group %q missed %d critical Intel Keys", sig, g, len(missing)),
				})
			}
			if pairs := sub.ViolationsOrder(order); len(pairs) > 0 {
				anomalies = append(anomalies, Anomaly{
					At:      last,
					Session: session, Kind: OrderViolation, Group: g, Signature: sig,
					Pairs:  pairs,
					Detail: fmt.Sprintf("subroutine %q in group %q broke %d BEFORE relations", sig, g, len(pairs)),
				})
			}
		}
	}

	if d.CheckMissingGroups {
		for _, g := range d.expectedGroups() {
			if g == hwgraph.MiscGroup {
				continue
			}
			if b, ok := scr.buckets[g]; !ok || b.epoch != scr.epoch {
				anomalies = append(anomalies, Anomaly{
					At:      last,
					Session: session, Kind: MissingGroup, Group: g,
					Detail: fmt.Sprintf("group %q appeared in every training session but is absent", g),
				})
			}
		}
	}

	if d.CheckHierarchy {
		for i := 0; i < len(touched); i++ {
			for j := i + 1; j < len(touched); j++ {
				ga, gb := touched[i], touched[j]
				// Single-message groups have point lifespans whose position
				// jitters with scheduling; only wide spans carry structure.
				if len(ga.msgs) < 2 || len(gb.msgs) < 2 ||
					ga.span.First == ga.span.Last || gb.span.First == gb.span.Last {
					continue
				}
				trained := d.Graph.Relation(ga.name, gb.name)
				if trained != hwgraph.Parent && trained != hwgraph.Before {
					continue
				}
				observed := hwgraph.SessionRelation(ga.span, gb.span)
				if observed != trained {
					anomalies = append(anomalies, Anomaly{
						At:      last,
						Session: session, Kind: HierarchyViolation, Group: ga.name,
						Detail: fmt.Sprintf("groups %q and %q trained %v but observed %v", ga.name, gb.name, trained, observed),
					})
				}
			}
		}
	}

	return anomalies
}
