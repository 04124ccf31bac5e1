package detect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/logging"
	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// fixture builds a tiny trained world by hand: two keys in one group with
// a strict order, plus an ignored non-NL key. testing.TB so the fuzz
// targets can build it once per process from a *testing.F.
func fixture(t testing.TB) *Detector {
	t.Helper()
	parser := spell.NewParser(0)
	sessions := [][]string{
		{"Registering worker node_01", "Registered worker node_01", "bufstart=11 bufend=22"},
		{"Registering worker node_02", "Registered worker node_02", "bufstart=31 bufend=92"},
	}
	var keys []*extract.IntelKey
	index := map[int]*extract.IntelKey{}
	var trainMsgs [][]*extract.Message
	for si, lines := range sessions {
		var msgs []*extract.Message
		for li, line := range lines {
			toks := nlp.Tokenize(line)
			k := parser.Consume(nlp.Texts(toks))
			ik, ok := index[k.ID]
			if !ok {
				ik = extract.BuildIntelKey(k)
				index[k.ID] = ik
				keys = append(keys, ik)
			}
			if !ik.NaturalLanguage {
				continue
			}
			msgs = append(msgs, extract.Bind(ik, toks,
				time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(si*100+li)*time.Second),
				"", line))
		}
		trainMsgs = append(trainMsgs, msgs)
	}
	// Rebuild Intel Keys after merges settled (samples may have changed).
	keys = keys[:0]
	for _, k := range parser.Keys() {
		ik := extract.BuildIntelKey(k)
		index[k.ID] = ik
		keys = append(keys, ik)
	}
	builder := hwgraph.NewBuilder(keys)
	for _, msgs := range trainMsgs {
		builder.AddSession(msgs)
	}
	return NewDetector(parser, index, builder.KeyGroups, builder.Graph())
}

func session(lines ...string) *logging.Session {
	s := &logging.Session{ID: "test", Framework: logging.Spark}
	t0 := time.Date(2019, 3, 2, 9, 0, 0, 0, time.UTC)
	for i, l := range lines {
		s.Records = append(s.Records, logging.Record{
			Time: t0.Add(time.Duration(i) * time.Second), Level: logging.Info,
			Message: l, SessionID: "test", Framework: logging.Spark,
		})
	}
	return s
}

func TestCleanSessionNoAnomalies(t *testing.T) {
	d := fixture(t)
	got := d.DetectSession(session(
		"Registering worker node_07", "Registered worker node_07", "bufstart=5 bufend=6"))
	if len(got) != 0 {
		t.Fatalf("anomalies on clean session: %+v", got)
	}
}

func TestNonNLMessagesIgnored(t *testing.T) {
	d := fixture(t)
	// Matched non-NL key with never-seen values must not alarm (§5 ignore
	// list).
	got := d.DetectSession(session(
		"Registering worker node_07", "Registered worker node_07", "bufstart=999999 bufend=0"))
	if len(got) != 0 {
		t.Fatalf("non-NL message triggered: %+v", got)
	}
}

func TestUnexpectedMessageExtraction(t *testing.T) {
	d := fixture(t)
	got := d.DetectSession(session(
		"Registering worker node_07", "Registered worker node_07",
		"Lost connection to worker node_07 on host3:8020"))
	if len(got) != 1 || got[0].Kind != UnexpectedMessage {
		t.Fatalf("got %+v, want one unexpected-message", got)
	}
	a := got[0]
	if a.Record == nil || a.Extracted == nil {
		t.Fatal("unexpected anomaly lacks record/extraction")
	}
	if addrs := a.Extracted.Localities["ADDR"]; len(addrs) != 1 || addrs[0] != "host3:8020" {
		t.Errorf("extracted ADDR = %v", a.Extracted.Localities)
	}
	if a.Group != "worker" {
		t.Errorf("attributed to group %q, want worker", a.Group)
	}
}

func TestMissingCriticalKeyDetected(t *testing.T) {
	d := fixture(t)
	got := d.DetectSession(session("Registering worker node_07"))
	found := false
	for _, a := range got {
		if a.Kind == MissingCriticalKeys && a.Group == "worker" && len(a.MissingKeys) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("truncated subroutine not caught: %+v", got)
	}
}

func TestOrderViolationDetected(t *testing.T) {
	d := fixture(t)
	got := d.DetectSession(session(
		"Registered worker node_07", "Registering worker node_07"))
	found := false
	for _, a := range got {
		if a.Kind == OrderViolation && len(a.Pairs) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("order inversion not caught: %+v", got)
	}
}

func TestReportHelpers(t *testing.T) {
	r := &Report{Anomalies: []Anomaly{
		{Session: "a", Kind: UnexpectedMessage},
		{Session: "a", Kind: OrderViolation},
		{Session: "b", Kind: MissingGroup},
	}}
	if got := r.ProblematicSessions(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("ProblematicSessions = %v", got)
	}
	if got := r.ByKind(UnexpectedMessage); len(got) != 1 {
		t.Errorf("ByKind = %v", got)
	}
}

func TestDetectBatch(t *testing.T) {
	d := fixture(t)
	r := d.DetectParallel([]*logging.Session{
		session("Registering worker node_07", "Registered worker node_07"),
		session("Registering worker node_08"),
	}, 0)
	if r.Sessions != 2 {
		t.Errorf("Sessions = %d", r.Sessions)
	}
	if len(r.ProblematicSessions()) != 1 {
		t.Errorf("ProblematicSessions = %v", r.ProblematicSessions())
	}
}

func TestReportSummary(t *testing.T) {
	empty := &Report{Sessions: 3}
	if got := empty.Summary(); !strings.Contains(got, "no anomalies") {
		t.Errorf("empty summary = %q", got)
	}
	r := &Report{Sessions: 5, Anomalies: []Anomaly{
		{Session: "a", Kind: UnexpectedMessage, Group: "fetcher"},
		{Session: "a", Kind: UnexpectedMessage, Group: "fetcher"},
		{Session: "b", Kind: MissingGroup, Group: "task"},
	}}
	got := r.Summary()
	for _, want := range []string{"5 sessions checked", "2 problematic", "3 findings",
		"unexpected-message", "missing-group", "fetcher (2)", "task (1)"} {
		if !strings.Contains(got, want) {
			t.Errorf("Summary missing %q:\n%s", want, got)
		}
	}
}

// TestDetectParallelDeterministic pins the ordered merge: at every shard
// count — serial, small, and oversubscribed (more shards than sessions
// or CPUs) — DetectParallel must reproduce the exact serial report,
// anomaly order included, not merely the same multiset of findings.
func TestDetectParallelDeterministic(t *testing.T) {
	d := fixture(t)
	// A mixed batch: clean sessions, truncated subroutines, inversions and
	// unexpected messages, so the merge has real per-session findings to
	// keep in input order.
	var sessions []*logging.Session
	for i := 0; i < 23; i++ {
		var s *logging.Session
		switch i % 4 {
		case 0:
			s = session("Registering worker node_07", "Registered worker node_07")
		case 1:
			s = session("Registering worker node_08")
		case 2:
			s = session("Registered worker node_09", "Registering worker node_09")
		default:
			s = session("Lost connection to worker node_10 on host1:8020")
		}
		s.ID = fmt.Sprintf("s%02d", i)
		for r := range s.Records {
			s.Records[r].SessionID = s.ID
		}
		sessions = append(sessions, s)
	}

	want := d.DetectParallel(sessions, 1)
	if len(want.Anomalies) == 0 {
		t.Fatal("fixture batch produced no anomalies; test is vacuous")
	}
	// shards 0 is the one-per-CPU default every batch caller uses.
	for _, shards := range []int{0, 2, 3, 7, 16, 64} {
		got := d.DetectParallel(sessions, shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: report diverges from serial\n got: %+v\nwant: %+v",
				shards, got, want)
		}
	}
}
