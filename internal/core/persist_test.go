package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"intellog/internal/detect"
	"intellog/internal/logging"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainMini(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded.Keys) != len(m.Keys) {
		t.Errorf("keys: %d vs %d", len(loaded.Keys), len(m.Keys))
	}
	if len(loaded.Graph.Nodes) != len(m.Graph.Nodes) {
		t.Errorf("nodes: %d vs %d", len(loaded.Graph.Nodes), len(m.Graph.Nodes))
	}
	// The loaded model must detect identically.
	clean := miniSession("container_rt", 70)
	if got := loaded.Detect([]*logging.Session{clean}); len(got.Anomalies) != 0 {
		for _, a := range got.Anomalies {
			t.Logf("anomaly: %s %s %s", a.Kind, a.Group, a.Detail)
		}
		t.Errorf("loaded model flags clean session")
	}
	killed := miniSession("container_rk", 80)
	killed.Records = killed.Records[:4]
	origN := len(m.Detect([]*logging.Session{killed}).Anomalies)
	loadN := len(loaded.Detect([]*logging.Session{killed}).Anomalies)
	if origN == 0 || origN != loadN {
		t.Errorf("detection differs after reload: %d vs %d", origN, loadN)
	}
	// Unexpected-message extraction still works through the loaded model.
	s := miniSession("container_ru", 90)
	s.Records[3].Message = "Failed to connect to host9:13562 for block fetch"
	rep := loaded.Detect([]*logging.Session{s})
	if len(rep.ByKind(detect.UnexpectedMessage)) == 0 {
		t.Error("loaded model misses unexpected messages")
	}
}

// checkpointCorpus interleaves a clean, a truncated, and an anomalous
// session into one record stream, round-robin (the aggregated-log shape
// the online mode consumes).
func checkpointCorpus() []logging.Record {
	clean := miniSession("container_a", 30)
	truncated := miniSession("container_b", 40)
	truncated.Records = truncated.Records[:4]
	odd := miniSession("container_c", 50)
	odd.Records[3].Message = "Failed to connect to host9:13562 for block fetch"
	var recs []logging.Record
	for i := 0; ; i++ {
		emitted := false
		for _, s := range []*logging.Session{clean, truncated, odd} {
			if i < len(s.Records) {
				recs = append(recs, s.Records[i])
				emitted = true
			}
		}
		if !emitted {
			return recs
		}
	}
}

// TestCheckpointRestoreByteIdenticalReport kills a streaming detector
// mid-corpus, persists model + in-flight state through SaveCheckpoint,
// restores both in a "new process" via LoadCheckpoint, and finishes the
// corpus: every finding and the final summary must be byte-identical to
// an uninterrupted run.
func TestCheckpointRestoreByteIdenticalReport(t *testing.T) {
	m := trainMini(t)
	cfg := detect.StreamConfig{IdleTimeout: time.Minute, MaxSessionMsgs: 32}
	recs := checkpointCorpus()

	run := func(consume func(sd *detect.StreamDetector, emit func([]detect.Anomaly)) *detect.Report) (string, string) {
		t.Helper()
		var all []detect.Anomaly
		emit := func(a []detect.Anomaly) { all = append(all, a...) }
		sd := detect.NewStream(m.Detector(), cfg)
		rep := consume(sd, emit)
		emit(rep.Anomalies)
		raw, err := json.Marshal(all)
		if err != nil {
			t.Fatalf("marshal findings: %v", err)
		}
		return string(raw), rep.Summary()
	}

	wantFindings, wantSummary := run(func(sd *detect.StreamDetector, emit func([]detect.Anomaly)) *detect.Report {
		for _, r := range recs {
			emit(sd.Consume(r))
		}
		return sd.Flush()
	})

	// Interrupted run: consume half, checkpoint, "restart", finish.
	cut := len(recs) / 2
	var all []detect.Anomaly
	sd := detect.NewStream(m.Detector(), cfg)
	for _, r := range recs[:cut] {
		all = append(all, sd.Consume(r)...)
	}
	var ckpt bytes.Buffer
	if err := SaveCheckpoint(&ckpt, m, sd.State()); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	m2, st, err := LoadCheckpoint(&ckpt)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	sd2, err := m2.RestoreStream(cfg, st)
	if err != nil {
		t.Fatalf("RestoreStream: %v", err)
	}
	if sd2.Pending() != sd.Pending() {
		t.Fatalf("restored Pending = %d, want %d", sd2.Pending(), sd.Pending())
	}
	for _, r := range recs[cut:] {
		all = append(all, sd2.Consume(r)...)
	}
	rep := sd2.Flush()
	all = append(all, rep.Anomalies...)
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatalf("marshal findings: %v", err)
	}

	if string(raw) != wantFindings {
		t.Errorf("findings diverge after checkpoint/restore:\ngot:  %s\nwant: %s", raw, wantFindings)
	}
	if got := rep.Summary(); got != wantSummary {
		t.Errorf("summary diverges after checkpoint/restore:\ngot:  %q\nwant: %q", got, wantSummary)
	}
}

func TestCheckpointCursorRoundTrip(t *testing.T) {
	m := trainMini(t)
	sd := detect.NewStream(m.Detector(), detect.StreamConfig{})
	var buf bytes.Buffer
	if err := SaveCheckpointAt(&buf, m, sd.State(), 4242); err != nil {
		t.Fatalf("SaveCheckpointAt: %v", err)
	}
	if _, _, cur, err := LoadCheckpointAt(&buf); err != nil || cur != 4242 {
		t.Fatalf("LoadCheckpointAt = cursor %d, err %v; want 4242, nil", cur, err)
	}
}

func TestCheckpointRejectsBadInput(t *testing.T) {
	if _, _, err := LoadCheckpoint(strings.NewReader("{")); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, _, err := LoadCheckpoint(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, _, err := LoadCheckpoint(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("checkpoint without stream state accepted")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("model without graph accepted")
	}
}

// TestIndentedCheckpointStillLoads: checkpoints are written compact now,
// but files written by earlier versions, through an Encoder with
// SetIndent("", " "), must keep loading: same cursor, same analytics
// payload, and a restored detector whose remaining findings and Flush
// report are byte-identical to the compact form's.
func TestIndentedCheckpointStillLoads(t *testing.T) {
	m := trainMini(t)
	cfg := detect.StreamConfig{IdleTimeout: time.Minute}
	recs := checkpointCorpus()
	cut := len(recs) / 2
	sd := detect.NewStream(m.Detector(), cfg)
	for _, r := range recs[:cut] {
		sd.Consume(r)
	}
	st := sd.State()
	analytics := []byte(`{"version":1,"observed":3}`)

	var compact, indented bytes.Buffer
	if err := SaveCheckpointState(&compact, m, st, 42, analytics); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", " ")
	if err := enc.Encode(checkpointJSON{Version: checkpointVersion, Model: m.toJSON(), Stream: st, Cursor: 42, Analytics: analytics}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(compact.Bytes(), []byte("\n ")) || compact.Len() >= indented.Len() {
		t.Fatalf("checkpoint is not compact: %d bytes, indented form %d", compact.Len(), indented.Len())
	}
	var reindented bytes.Buffer
	if err := json.Indent(&reindented, compact.Bytes(), "", " "); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reindented.Bytes(), indented.Bytes()) {
		t.Fatal("the compact and indented checkpoints encode different documents")
	}

	finish := func(ckpt []byte) string {
		t.Helper()
		m2, st2, cursor, blob, err := LoadCheckpointState(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatalf("LoadCheckpointState: %v", err)
		}
		var gotBlob bytes.Buffer
		if err := json.Compact(&gotBlob, blob); err != nil || cursor != 42 || !bytes.Equal(gotBlob.Bytes(), analytics) {
			t.Fatalf("cursor %d, analytics %s (%v); want 42, %s", cursor, blob, err, analytics)
		}
		sd2, err := m2.RestoreStream(cfg, st2)
		if err != nil {
			t.Fatalf("RestoreStream: %v", err)
		}
		var all []detect.Anomaly
		for _, r := range recs[cut:] {
			all = append(all, sd2.Consume(r)...)
		}
		rep := sd2.Flush()
		raw, err := json.Marshal(append(all, rep.Anomalies...))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw) + "\n" + rep.Summary()
	}
	want := finish(compact.Bytes())
	if got := finish(indented.Bytes()); got != want {
		t.Errorf("an indented checkpoint restores differently:\ngot:  %s\nwant: %s", got, want)
	}
}
