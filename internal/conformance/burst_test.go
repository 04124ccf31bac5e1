package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"intellog/internal/detect"
	"intellog/internal/logging"
)

// burstIdle is the idle timeout of the expiry-burst streams: the
// daemon's default, and the first of OracleIdles.
const burstIdle = 5 * time.Minute

// replayTwice returns recs followed by a second copy of them whose
// sessions are renamed and whose times are shifted past 2 × idle beyond
// the first copy's newest record, so that the second copy's first
// record idles out every session the first copy left open — one record,
// one burst of closes. Zero times stay zero.
func replayTwice(recs []logging.Record, idle time.Duration) []logging.Record {
	var lo, hi time.Time
	for _, r := range recs {
		if r.Time.IsZero() {
			continue
		}
		if lo.IsZero() || r.Time.Before(lo) {
			lo = r.Time
		}
		if r.Time.After(hi) {
			hi = r.Time
		}
	}
	shift := hi.Sub(lo) + 2*idle + time.Minute
	out := append(make([]logging.Record, 0, 2*len(recs)), recs...)
	for _, r := range recs {
		if !r.Time.IsZero() {
			r.Time = r.Time.Add(shift)
		}
		r.SessionID += "/replay"
		out = append(out, r)
	}
	return out
}

// specNamed returns the matrix entry called name.
func specNamed(t testing.TB, name string) Spec {
	for _, sp := range DefaultMatrix() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no matrix corpus %q", name)
	return Spec{}
}

// streamEmission is every finding one streaming run emits, in emission
// order: what each Consume or ConsumeBatch call returned, then Flush's
// report. widest is the most sessions whose end-of-session findings one
// call returned — the size of the largest burst that showed.
func streamEmission(d *detect.Detector, cfg detect.StreamConfig, recs []logging.Record, batch int) (all []detect.Anomaly, widest int) {
	sd := detect.NewStream(d, cfg)
	for len(recs) > 0 {
		n := min(max(batch, 1), len(recs))
		var out []detect.Anomaly
		if batch == 0 {
			out = sd.Consume(recs[0])
		} else {
			out = sd.ConsumeBatch(recs[:n], 0)
		}
		closed := map[string]bool{}
		for _, a := range out {
			if a.Kind != detect.UnexpectedMessage && a.Kind != detect.Overflow {
				closed[a.Session] = true
			}
		}
		widest = max(widest, len(closed))
		all = append(all, out...)
		recs = recs[n:]
	}
	return append(all, sd.Flush().Anomalies...), widest
}

// TestExpiryBurstEmissionOrder: the sessions one record closes are
// checked concurrently, and their findings must still come out in the
// serial order — the eviction's Overflow, the evicted session's
// findings, the expired sessions oldest first, the record's own finding
// — with the same Seq. The oracle cannot see this: Canonicalize sorts
// findings, and Seq is not in the JSON. For each stream, record-at-a-
// time Consume and 512-record ConsumeBatch at GOMAXPROCS 4 must equal,
// element by element (JSON bytes and Seq), Consume at GOMAXPROCS 1,
// where every close is checked on the calling goroutine. The streams
// are a Spark and an HDFS corpus each replayed twice (the replay's
// first record closes every session of the first copy at once) and
// spark-hostile-burst, each at the default idle timeout, with and
// without a 64-session cap.
func TestExpiryBurstEmissionOrder(t *testing.T) {
	type stream struct {
		name string
		fw   logging.Framework
		recs []logging.Record
	}
	var streams []stream
	for _, name := range []string{"spark-large-mixed", "hdfs-faulted"} {
		c := specNamed(t, name).Generate()
		streams = append(streams, stream{name + "-twice", c.Spec.Framework, replayTwice(c.Records, burstIdle)})
	}
	c := specNamed(t, "spark-hostile-burst").Generate()
	streams = append(streams, stream{c.Spec.Name, c.Spec.Framework, c.Records})

	for _, st := range streams {
		d := ModelFor(st.fw).Detector()
		for _, capped := range []int{0, 64} {
			cfg := detect.StreamConfig{IdleTimeout: burstIdle, MaxSessions: capped}
			t.Run(fmt.Sprintf("%s/max%d", st.name, capped), func(t *testing.T) {
				old := runtime.GOMAXPROCS(1)
				defer runtime.GOMAXPROCS(old)
				want, widest := streamEmission(d, cfg, st.recs, 0)
				if widest < 2 {
					t.Fatalf("no call closed more than %d session with findings: the stream has no burst to check", widest)
				}
				runtime.GOMAXPROCS(4)
				for _, batch := range []int{0, 512} {
					got, _ := streamEmission(d, cfg, st.recs, batch)
					assertSameEmission(t, fmt.Sprintf("batch %d at GOMAXPROCS 4", batch), got, want)
				}
			})
		}
	}
}

// assertSameEmission requires got to equal want element by element: the
// same JSON bytes and the same Seq at every position.
func assertSameEmission(t *testing.T, label string, got, want []detect.Anomaly) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d findings, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, err := json.Marshal(&got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(&want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) || got[i].Seq != want[i].Seq {
			t.Fatalf("%s: finding %d is seq %d %s, want seq %d %s", label, i, got[i].Seq, g, want[i].Seq, w)
		}
	}
}
