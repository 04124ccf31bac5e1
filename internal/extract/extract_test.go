package extract

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"intellog/internal/nlp"
	"intellog/internal/spell"
)

// keyFrom builds a spell key by consuming the given messages.
func keyFrom(t *testing.T, msgs ...string) *spell.Key {
	t.Helper()
	p := spell.NewParser(0)
	var k *spell.Key
	for _, m := range msgs {
		k = p.Consume(nlp.Texts(nlp.Tokenize(m)))
	}
	if len(p.Keys()) != 1 {
		t.Fatalf("messages produced %d keys, want 1", len(p.Keys()))
	}
	return k
}

func TestFigure1ShuffleKey(t *testing.T) {
	k := keyFrom(t,
		"fetcher#1 about to shuffle output of map attempt_01",
		"fetcher#2 about to shuffle output of map attempt_02",
	)
	ik := BuildIntelKey(k)
	if !ik.HasEntity("fetcher") {
		t.Errorf("entities = %v, want fetcher present", ik.Entities)
	}
	if !ik.HasEntity("output of map") && !ik.HasEntity("output") {
		t.Errorf("entities = %v, want an output entity", ik.Entities)
	}
	types := ik.IdentifierTypes()
	wantTypes := map[string]bool{"FETCHER": true, "ATTEMPT": true}
	for _, typ := range types {
		if !wantTypes[typ] {
			t.Errorf("unexpected identifier type %q (all: %v)", typ, types)
		}
		delete(wantTypes, typ)
	}
	if len(wantTypes) != 0 {
		t.Errorf("missing identifier types %v (got %v)", wantTypes, types)
	}
	// Operation: {fetcher, shuffle, output...}.
	found := false
	for _, op := range ik.Operations {
		if op.Predicate == "shuffle" && op.Subject == "fetcher" {
			found = true
		}
	}
	if !found {
		t.Errorf("operations = %v, want {fetcher, shuffle, *}", ik.Operations)
	}
	if !ik.NaturalLanguage {
		t.Error("shuffle key should be natural language")
	}
}

func TestFigure1FreedKey(t *testing.T) {
	k := keyFrom(t,
		"host1:13562 freed by fetcher#1 in 4ms",
		"host2:13562 freed by fetcher#2 in 11ms",
	)
	ik := BuildIntelKey(k)
	// Locality: host:port.
	var locs []Slot
	var vals []Slot
	for _, s := range ik.Slots {
		switch s.Kind {
		case SlotLocality:
			locs = append(locs, s)
		case SlotValue:
			vals = append(vals, s)
		}
	}
	if len(locs) != 1 || locs[0].Type != "ADDR" {
		t.Errorf("locality slots = %v, want one ADDR", locs)
	}
	if len(vals) != 1 || vals[0].Type != "ms" {
		t.Errorf("value slots = %v, want one ms value", vals)
	}
	if !ik.HasEntity("fetcher") {
		t.Errorf("entities = %v, want fetcher", ik.Entities)
	}
	foundFree := false
	for _, op := range ik.Operations {
		if op.Predicate == "free" {
			foundFree = true
		}
	}
	if !foundFree {
		t.Errorf("operations = %v, want predicate free", ik.Operations)
	}
}

func TestFigure3StartingMapTask(t *testing.T) {
	k := keyFrom(t, "Starting MapTask metrics system")
	ik := BuildIntelKey(k)
	hasMapTask := false
	for _, e := range ik.Entities {
		if strings.HasPrefix(e, "map task") {
			hasMapTask = true
		}
	}
	if !hasMapTask {
		t.Errorf("entities = %v, want camel-split map task phrase", ik.Entities)
	}
	hasStart := false
	for _, op := range ik.Operations {
		if op.Predicate == "start" {
			hasStart = true
		}
	}
	if !hasStart {
		t.Errorf("operations = %v, want start", ik.Operations)
	}
}

func TestFigure4TaskFinish(t *testing.T) {
	k := keyFrom(t,
		"Finished task 1.0 in stage 1.0 (TID 4). 1109 bytes result sent to driver",
		"Finished task 3.0 in stage 1.0 (TID 7). 1401 bytes result sent to driver",
	)
	ik := BuildIntelKey(k)
	for _, want := range []string{"task", "stage", "result", "driver"} {
		if !ik.HasEntity(want) {
			t.Errorf("entities = %v, want %q", ik.Entities, want)
		}
	}
	// 'bytes' is a unit, not an entity.
	if ik.HasEntity("byte") || ik.HasEntity("bytes") {
		t.Errorf("entities = %v: unit extracted as entity", ik.Entities)
	}
	// Three identifiers (task, stage, TID), one value (bytes).
	ids, vals := 0, 0
	for _, s := range ik.Slots {
		switch s.Kind {
		case SlotIdentifier:
			ids++
		case SlotValue:
			vals++
		}
	}
	if ids != 3 {
		t.Errorf("identifier slots = %d, want 3 (%+v)", ids, ik.Slots)
	}
	if vals != 1 {
		t.Errorf("value slots = %d, want 1 (%+v)", vals, ik.Slots)
	}
	// Two operations: finish and send.
	preds := map[string]bool{}
	for _, op := range ik.Operations {
		preds[op.Predicate] = true
	}
	if !preds["finish"] || !preds["send"] {
		t.Errorf("operations = %v, want finish and send", ik.Operations)
	}
}

func TestKVDumpIsNotNaturalLanguage(t *testing.T) {
	k := keyFrom(t, "memoryLimit=334338464 mergeThreshold=220663392 ioSortFactor=10")
	ik := BuildIntelKey(k)
	if ik.NaturalLanguage {
		t.Errorf("key %q flagged natural language", ik)
	}
}

func TestProseWithoutPredicateIsNL(t *testing.T) {
	k := keyFrom(t, "Down to the last merge-pass, with 706 segments left of total size: 120 bytes")
	ik := BuildIntelKey(k)
	if !ik.NaturalLanguage {
		t.Error("prepositional prose should count as natural language")
	}
	// The paper: no predicate here, so no operation extracted.
	if len(ik.Operations) != 0 {
		t.Errorf("operations = %v, want none", ik.Operations)
	}
}

func TestLocalityClasses(t *testing.T) {
	cases := map[string]string{
		"host1:13562":           "ADDR",
		"10.0.0.4:8020":         "ADDR",
		"10.0.0.4":              "ADDR",
		"/tmp/blockmgr-8e2/11":  "PATH",
		"hdfs://nn:8020/user/x": "URI",
		"node07":                "HOST",
		"worker3.cluster.local": "HOST",
	}
	for in, want := range cases {
		got, ok := LocalityClass(in)
		if !ok || got != want {
			t.Errorf("LocalityClass(%q) = %q,%v, want %q", in, got, ok, want)
		}
	}
	for _, in := range []string{"task", "2264", "attempt_01", "output"} {
		if cls, ok := LocalityClass(in); ok {
			t.Errorf("LocalityClass(%q) = %q, want none", in, cls)
		}
	}
}

func TestIdentifierType(t *testing.T) {
	cases := [][3]string{
		{"attempt_01", "", "ATTEMPT"},
		{"fetcher#1", "", "FETCHER"},
		{"container_e01_0001", "", "CONTAINER"},
		{"broadcast_7", "", "BROADCAST"},
		{"4", "task", "TASK"},
		{"1.0", "stage", "STAGE"},
		{"4", "TID", "TID"},
		{"executor3", "", "EXECUTOR"},
	}
	for _, c := range cases {
		if got := IdentifierType(c[0], c[1]); got != c[2] {
			t.Errorf("IdentifierType(%q, %q) = %q, want %q", c[0], c[1], got, c[2])
		}
	}
}

func TestNumericValued(t *testing.T) {
	if num, unit, ok := numericValued("4ms"); !ok || num != "4" || unit != "ms" {
		t.Errorf("numericValued(4ms) = %q %q %v", num, unit, ok)
	}
	if num, unit, ok := numericValued("366.3"); !ok || num != "366.3" || unit != "" {
		t.Errorf("numericValued(366.3) = %q %q %v", num, unit, ok)
	}
	if _, _, ok := numericValued("attempt_01"); ok {
		t.Error("identifier classified as numeric")
	}
	if _, _, ok := numericValued("4xyz"); ok {
		t.Error("unknown unit suffix accepted")
	}
}

func TestBindProducesIntelMessage(t *testing.T) {
	k := keyFrom(t,
		"fetcher#1 read 2264 bytes from map-output for attempt_01",
		"fetcher#2 read 108 bytes from map-output for attempt_02",
	)
	ik := BuildIntelKey(k)
	ts := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	raw := "fetcher#3 read 999 bytes from map-output for attempt_09"
	toks := nlp.Tokenize(raw)
	if !Matches(ik, toks) {
		t.Fatalf("message does not match key %q", ik)
	}
	m := Bind(ik, toks, ts, "container_01", raw)
	// "fetcher#3" tokenizes as "fetcher # 3"; the identifier value is the
	// numeral, typed FETCHER by the preceding noun.
	if got := m.Identifiers["FETCHER"]; len(got) != 1 || got[0] != "3" {
		t.Errorf("FETCHER = %v", got)
	}
	if got := m.Identifiers["ATTEMPT"]; len(got) != 1 || got[0] != "attempt_09" {
		t.Errorf("ATTEMPT = %v", got)
	}
	if got := m.Values["byte"]; len(got) != 1 || got[0] != "999" {
		t.Errorf("byte values = %v (all %v)", got, m.Values)
	}
	set := m.IdentifierSet()
	if !reflect.DeepEqual(set, []string{"3", "attempt_09"}) {
		t.Errorf("IdentifierSet = %v", set)
	}
	if m.Session != "container_01" || !m.Time.Equal(ts) {
		t.Error("metadata not carried through")
	}
}

func TestMatchesRejects(t *testing.T) {
	k := keyFrom(t, "Got assigned task 1", "Got assigned task 2")
	ik := BuildIntelKey(k)
	if Matches(ik, nlp.Tokenize("Got assigned task")) {
		t.Error("shorter message matched")
	}
	if Matches(ik, nlp.Tokenize("Got revoked task 3")) {
		t.Error("divergent constant matched")
	}
	if !Matches(ik, nlp.Tokenize("Got assigned task 42")) {
		t.Error("valid message rejected")
	}
}

func TestSlotKindString(t *testing.T) {
	if SlotIdentifier.String() != "identifier" || SlotValue.String() != "value" ||
		SlotLocality.String() != "locality" || SlotOther.String() != "other" {
		t.Error("SlotKind names wrong")
	}
	if SlotKind(9).String() != "kind(9)" {
		t.Error("out-of-range SlotKind")
	}
}

func TestOperationString(t *testing.T) {
	op := Operation{Subject: "fetcher", Predicate: "shuffle", Object: "output"}
	if op.String() != "{fetcher, shuffle, output}" {
		t.Errorf("String = %q", op.String())
	}
}

func TestIsUnit(t *testing.T) {
	for _, u := range []string{"bytes", "MB", "ms", "seconds", "%"} {
		if !IsUnit(u) {
			t.Errorf("IsUnit(%q) = false", u)
		}
	}
	if IsUnit("fetcher") {
		t.Error("IsUnit(fetcher) = true")
	}
}

// TestIdentifierValues: the distinct values come in IdentifierSet order
// with their occurrence counts, and a value's hash is the same on every
// message that carries it — the property that lets Algorithm 2 compare
// values across prototypes without a shared table.
func TestIdentifierValues(t *testing.T) {
	m := &Message{Identifiers: map[string][]string{
		"TASK":  {"task_7", "task_7"},
		"STAGE": {"stage_2", "attempt_1"},
	}}
	got := m.IdentifierValues()
	if len(got) != 3 || got[0].Val != "attempt_1" || got[1].Val != "stage_2" || got[2].Val != "task_7" {
		t.Fatalf("IdentifierValues = %+v", got)
	}
	if got[0].Count != 1 || got[1].Count != 1 || got[2].Count != 2 {
		t.Errorf("counts = %d %d %d, want 1 1 2", got[0].Count, got[1].Count, got[2].Count)
	}
	if set := m.IdentifierSet(); len(set) != 4 {
		t.Errorf("IdentifierSet = %v, want the multiset of 4", set)
	}
	other := &Message{Identifiers: map[string][]string{"ID": {"task_7"}}}
	if ov := other.IdentifierValues(); len(ov) != 1 || ov[0].Hash != got[2].Hash {
		t.Errorf("task_7 hashes differently on two messages: %+v vs %+v", ov, got[2])
	}
	if got[0].Hash == got[1].Hash && got[1].Hash == got[2].Hash {
		t.Error("three distinct values share one hash")
	}
	if vals := (&Message{}).IdentifierValues(); len(vals) != 0 {
		t.Errorf("message without identifiers has values %+v", vals)
	}
}
