package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"intellog/internal/detect"
	"intellog/internal/extract"
	"intellog/internal/logging"
	"intellog/internal/nlp"
)

// miniSession fabricates a Spark-executor-like session with two tasks.
func miniSession(id string, firstTask int) *logging.Session {
	t0 := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	lines := []string{
		"Changing view acls to root",
		"MemoryStore started with capacity 366 MB",
		fmt.Sprintf("Got assigned task %d", firstTask),
		fmt.Sprintf("Running task %d in stage 90", firstTask),
		fmt.Sprintf("Finished task %d in stage 90", firstTask),
		fmt.Sprintf("Got assigned task %d", firstTask+1),
		fmt.Sprintf("Running task %d in stage 90", firstTask+1),
		fmt.Sprintf("Finished task %d in stage 90", firstTask+1),
		"MemoryStore cleared",
		"Shutdown hook called",
	}
	s := &logging.Session{ID: id, Framework: logging.Spark}
	for i, l := range lines {
		s.Records = append(s.Records, logging.Record{
			Time: t0.Add(time.Duration(i) * time.Second), Level: logging.Info,
			Message: l, Framework: logging.Spark, SessionID: id,
		})
	}
	return s
}

// trainMini trains a tiny model. testing.TB so the fuzz targets can call
// it once per process from a *testing.F.
func trainMini(t testing.TB) *Model {
	t.Helper()
	var sessions []*logging.Session
	for i := 0; i < 4; i++ {
		sessions = append(sessions, miniSession(fmt.Sprintf("container_%02d", i), 10+2*i))
	}
	return Train(sessions, Config{})
}

func TestTrainBuildsModel(t *testing.T) {
	m := trainMini(t)
	if len(m.Keys) == 0 {
		t.Fatal("no Intel Keys")
	}
	if len(m.Graph.Nodes) == 0 {
		t.Fatal("no HW-graph nodes")
	}
	// The task keys must share a group.
	var taskGroup string
	for _, node := range m.Graph.Nodes {
		for _, e := range node.Entities {
			if e == "task" {
				taskGroup = node.Name
			}
		}
	}
	if taskGroup == "" {
		t.Fatalf("no group contains entity 'task'; nodes: %v", m.Graph.Render())
	}
	node := m.Graph.Nodes[taskGroup]
	if len(node.Keys) < 3 {
		t.Errorf("task group keys = %v, want the three task keys", node.Keys)
	}
	if !node.Critical {
		t.Error("task group should be critical (multiple keys)")
	}
}

func TestDetectCleanSession(t *testing.T) {
	m := trainMini(t)
	clean := miniSession("container_99", 70)
	report := m.Detect([]*logging.Session{clean})
	if len(report.Anomalies) != 0 {
		for _, a := range report.Anomalies {
			t.Logf("anomaly: %s %s %s", a.Kind, a.Group, a.Detail)
		}
		t.Fatalf("clean session produced %d anomalies", len(report.Anomalies))
	}
	if got := report.ProblematicSessions(); len(got) != 0 {
		t.Errorf("ProblematicSessions = %v", got)
	}
}

func TestDetectTruncatedSession(t *testing.T) {
	m := trainMini(t)
	killed := miniSession("container_k", 80)
	killed.Records = killed.Records[:4] // SIGKILL right after "Running task 80"
	report := m.Detect([]*logging.Session{killed})
	if len(report.Anomalies) == 0 {
		t.Fatal("truncated session produced no anomalies")
	}
	foundMissing := false
	for _, a := range report.Anomalies {
		if a.Kind == detect.MissingCriticalKeys || a.Kind == detect.MissingGroup {
			foundMissing = true
		}
	}
	if !foundMissing {
		for _, a := range report.Anomalies {
			t.Logf("anomaly: %s %s %s", a.Kind, a.Group, a.Detail)
		}
		t.Error("expected missing-critical-keys or missing-group anomaly")
	}
}

func TestDetectUnexpectedMessage(t *testing.T) {
	m := trainMini(t)
	s := miniSession("container_u", 90)
	bad := logging.Record{
		Time: s.Records[3].Time, Level: logging.Warn, Framework: logging.Spark,
		SessionID: s.ID, Message: "Failed to connect to host9:13562 for block fetch",
	}
	s.Records = append(s.Records[:4:4], append([]logging.Record{bad}, s.Records[4:]...)...)
	report := m.Detect([]*logging.Session{s})
	unexpected := report.ByKind(detect.UnexpectedMessage)
	if len(unexpected) != 1 {
		t.Fatalf("got %d unexpected-message anomalies, want 1 (all: %+v)", len(unexpected), report.Anomalies)
	}
	a := unexpected[0]
	if a.Extracted == nil {
		t.Fatal("no extraction on unexpected message")
	}
	if addrs := a.Extracted.Localities["ADDR"]; len(addrs) != 1 || addrs[0] != "host9:13562" {
		t.Errorf("extracted localities = %v, want host9:13562", a.Extracted.Localities)
	}
}

func TestDetectMissingTaskGroup(t *testing.T) {
	m := trainMini(t)
	idle := miniSession("container_i", 95)
	// Remove every task-related record (the SPARK-19731 signature: a
	// container that never receives tasks).
	var kept []logging.Record
	for _, r := range idle.Records {
		if containsAny(r.Message, "task") {
			continue
		}
		kept = append(kept, r)
	}
	idle.Records = kept
	report := m.Detect([]*logging.Session{idle})
	found := false
	for _, a := range report.ByKind(detect.MissingGroup) {
		if a.Group == "task" {
			found = true
		}
	}
	if !found {
		for _, a := range report.Anomalies {
			t.Logf("anomaly: %s %s %s", a.Kind, a.Group, a.Detail)
		}
		t.Error("idle container should report missing 'task' group")
	}
}

func TestMessagesBinding(t *testing.T) {
	m := trainMini(t)
	msgs := m.Messages([]*logging.Session{miniSession("container_m", 50)})
	if len(msgs) != 10 {
		t.Fatalf("got %d messages, want 10", len(msgs))
	}
	// The "Running task 50 in stage 90" message carries TASK and STAGE ids.
	foundTask := false
	for _, msg := range msgs {
		if len(msg.Identifiers["TASK"]) > 0 && len(msg.Identifiers["STAGE"]) > 0 {
			foundTask = true
		}
	}
	if !foundTask {
		t.Error("no message bound TASK and STAGE identifiers")
	}
}

// TestMessagesAfterDetectBindInFull: training and detection publish
// Algorithm-2 prototypes, which have no field maps, to the model's shared
// lookup cache. The query API must still return full Intel Messages —
// deep-equal to a Bind per record with its identifier caches filled, as
// the API has always returned — when detection saw the renderings first,
// including renderings training never saw.
func TestMessagesAfterDetectBindInFull(t *testing.T) {
	m := trainMini(t)
	sessions := []*logging.Session{miniSession("container_m", 50), miniSession("container_00", 10)}
	var want []*extract.Message
	for _, s := range sessions {
		for _, rec := range s.Records {
			toks := nlp.Tokenize(rec.Message)
			if k := m.Parser.Lookup(nlp.Texts(toks)); k != nil && m.Keys[k.ID].NaturalLanguage {
				full := extract.Bind(m.Keys[k.ID], toks, rec.Time, s.ID, rec.Message)
				full.IdentifierSet()
				full.TypeSignature()
				want = append(want, full)
			}
		}
	}
	m.Detect(sessions)
	sd := detect.NewStream(m.Detector(), detect.StreamConfig{})
	for _, s := range sessions {
		for _, rec := range s.Records {
			sd.Consume(rec)
		}
	}
	got := m.Messages(sessions)
	if len(got) != len(want) || len(want) != 20 {
		t.Fatalf("Messages after detection: %d messages, want %d (of 20 records)", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("Messages after detection, message %d:\n got %+v\nwant %+v", i, *got[i], *want[i])
		}
	}
}

func TestAblationDisableCriticalKeys(t *testing.T) {
	var sessions []*logging.Session
	for i := 0; i < 4; i++ {
		sessions = append(sessions, miniSession(fmt.Sprintf("c%d", i), 10+2*i))
	}
	m := Train(sessions, Config{DisableCriticalKeys: true, DisableMissingGroupCheck: true, DisableHierarchyCheck: true})
	killed := miniSession("ck", 80)
	killed.Records = killed.Records[:4]
	report := m.Detect([]*logging.Session{killed})
	if got := report.ByKind(detect.MissingCriticalKeys); len(got) != 0 {
		t.Errorf("critical keys disabled but still reported: %+v", got)
	}
}

func TestKindString(t *testing.T) {
	if detect.UnexpectedMessage.String() != "unexpected-message" {
		t.Error("kind name wrong")
	}
	if detect.Kind(42).String() != "kind(42)" {
		t.Error("out-of-range kind")
	}
}

func containsAny(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
