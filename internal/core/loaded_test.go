package core_test

import (
	"bytes"
	"testing"

	"intellog/internal/conformance"
	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/logging"
	"intellog/internal/sim"
)

// trainedAndLoaded trains the framework's reference model afresh and
// returns detectors over it and over its Save → Load round trip — the
// model every intellogd tenant and every `intellog -model` run serves.
func trainedAndLoaded(t *testing.T, fw logging.Framework) (trained, loaded *detect.Detector) {
	t.Helper()
	m := core.Train(conformance.TrainingSessions(fw), core.Config{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	lm, err := core.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return m.Detector(), lm.Detector()
}

// TestSavedModelIsDeterministic: a saved model's bytes are a function of
// its training corpus, so two trainings on one corpus save identical
// files, and so does a model loaded from those bytes.
func TestSavedModelIsDeterministic(t *testing.T) {
	save := func(m *core.Model) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return buf.Bytes()
	}
	sessions := conformance.TrainingSessions(logging.Spark)
	first := save(core.Train(sessions, core.Config{}))
	if second := save(core.Train(sessions, core.Config{})); !bytes.Equal(first, second) {
		t.Error("two trainings on one corpus saved different bytes")
	}
	loaded, err := core.Load(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if again := save(loaded); !bytes.Equal(first, again) {
		t.Error("save → load → save changed the bytes")
	}
}

// TestLoadedModelDetectsLikeTrained: a model that went through Save and
// Load reports byte-identically to the in-process one, batch and stream,
// and finalizing a session costs it no more allocations. Before the
// per-prototype value hashes a loaded model carried no value interner, so
// Algorithm 2 re-interned every message of every session it finalized
// (about four objects per message) while the trained model did not.
func TestLoadedModelDetectsLikeTrained(t *testing.T) {
	for _, sp := range []conformance.Spec{
		{Name: "spark-faulted", Framework: logging.Spark, Jobs: 3, Seed: 2402,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork}},
		{Name: "hdfs-faulted", Framework: logging.HDFS, Jobs: 3, Seed: 2410,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultNetwork, sim.FaultKill}},
	} {
		t.Run(sp.Name, func(t *testing.T) {
			trained, loaded := trainedAndLoaded(t, sp.Framework)
			recs := sp.Generate().Records
			for _, path := range []struct {
				name string
				run  func(*detect.Detector) *detect.Report
			}{
				{"DetectParallel", func(d *detect.Detector) *detect.Report {
					return conformance.BatchParallelPath(d, recs, 2)
				}},
				{"NewStream+Flush", func(d *detect.Detector) *detect.Report {
					return conformance.StreamPath(d, recs)
				}},
			} {
				want, err := conformance.Canonicalize(path.run(trained))
				if err != nil {
					t.Fatal(err)
				}
				got, err := conformance.Canonicalize(path.run(loaded))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: loaded model's report differs from the trained model's", path.name)
				}
			}

			// The widest session, every rendering already cached by the
			// runs above: Consume resolves from the memo and CloseSession
			// is Algorithm 2 plus the structural checks.
			var widest *logging.Session
			for _, s := range logging.GroupSessions(recs) {
				if widest == nil || len(s.Records) > len(widest.Records) {
					widest = s
				}
			}
			finalizeAllocs := func(d *detect.Detector) float64 {
				sd := detect.NewStream(d, detect.StreamConfig{})
				return testing.AllocsPerRun(10, func() {
					for _, r := range widest.Records {
						sd.Consume(r)
					}
					sd.CloseSession(widest.ID)
				})
			}
			ta, la := finalizeAllocs(trained), finalizeAllocs(loaded)
			// Slack well under the old gap (≈ 4 per message), well over a
			// pooled scratch rebuilt after a collection.
			if slack := float64(len(widest.Records)) / 2; la > ta+slack {
				t.Errorf("finalizing %d records: loaded model %.0f allocs, trained %.0f", len(widest.Records), la, ta)
			}
		})
	}
}
