package core

// Native fuzz target for the checkpoint path. Two contracts: (a) the
// loader must survive arbitrary bytes — malformed checkpoints return
// errors, never panics, and whatever *does* load must restore or be
// rejected cleanly; (b) for a kill/resume derived from the fuzz input
// (cut point and session interleaving), the combined findings must be
// byte-identical to an uninterrupted run over the same records, through
// a full model+state JSON round trip. Run continuously with:
//
//	go test -run '^$' -fuzz FuzzCheckpointRoundTrip ./internal/core/

import (
	"bytes"
	"encoding/json"
	"testing"

	"intellog/internal/detect"
	"intellog/internal/logging"
)

func FuzzCheckpointRoundTrip(f *testing.F) {
	m := trainMini(f)

	// Seed with a real checkpoint's bytes plus structurally interesting
	// junk.
	sd := detect.NewStream(m.Detector(), detect.StreamConfig{})
	for _, r := range miniSession("container_seed", 10).Records[:4] {
		sd.Consume(r)
	}
	var seed bytes.Buffer
	if err := SaveCheckpointState(&seed, m, sd.State(), 4, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"stream":{}}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte{0x00, 0xff, 0x7b, 0x7d})

	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) The loader never panics; a checkpoint that decodes must
		// either restore or be rejected with an error.
		if m2, st, _, _, err := LoadCheckpointState(bytes.NewReader(data)); err == nil {
			if sd2, err := m2.RestoreStream(detect.StreamConfig{}, st); err == nil {
				sd2.Flush()
			}
		}

		// (b) Kill/resume parity on a record stream derived from the fuzz
		// bytes: two interleaved mini sessions, truncated and cut where the
		// input says.
		recs := interleaveMini(data)
		if len(recs) < 2 {
			return
		}
		cut := 1 + int(data[0])%(len(recs)-1)

		full := detect.NewStream(m.Detector(), detect.StreamConfig{})
		var uninterrupted []detect.Anomaly
		for _, r := range recs {
			uninterrupted = append(uninterrupted, full.Consume(r)...)
		}
		fullRep := full.Flush()
		uninterrupted = append(uninterrupted, fullRep.Anomalies...)

		first := detect.NewStream(m.Detector(), detect.StreamConfig{})
		var combined []detect.Anomaly
		for _, r := range recs[:cut] {
			combined = append(combined, first.Consume(r)...)
		}
		var buf bytes.Buffer
		if err := SaveCheckpointState(&buf, m, first.State(), int64(cut), nil); err != nil {
			t.Fatalf("checkpoint at %d: %v", cut, err)
		}
		m2, st, cursor, _, err := LoadCheckpointState(&buf)
		if err != nil {
			t.Fatalf("reload checkpoint: %v", err)
		}
		second, err := m2.RestoreStream(detect.StreamConfig{}, st)
		if err != nil {
			t.Fatalf("restore stream: %v", err)
		}
		for _, r := range recs[cursor:] {
			combined = append(combined, second.Consume(r)...)
		}
		rep := second.Flush()
		combined = append(combined, rep.Anomalies...)

		if rep.Sessions != fullRep.Sessions {
			t.Fatalf("resumed run saw %d sessions, uninterrupted %d", rep.Sessions, fullRep.Sessions)
		}
		got, err := json.Marshal(combined)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(uninterrupted)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resumed findings diverge at cut %d:\ngot:  %s\nwant: %s", cut, got, want)
		}
	})
}

// interleaveMini turns fuzz bytes into a record stream over two mini
// sessions: each byte appends the next record of session (b>>6)&1, and
// bytes with the low bit set skip a record (truncation/holes).
func interleaveMini(data []byte) []logging.Record {
	if len(data) > 128 {
		data = data[:128]
	}
	srcs := []*logging.Session{miniSession("container_fz_a", 10), miniSession("container_fz_b", 12)}
	next := make([]int, len(srcs))
	var out []logging.Record
	for _, b := range data {
		si := int(b>>6) & 1
		if b&1 == 1 {
			next[si]++ // hole: drop one record of that session
		}
		if next[si] >= len(srcs[si].Records) {
			continue
		}
		out = append(out, srcs[si].Records[next[si]])
		next[si]++
	}
	return out
}
