package main

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"intellog/internal/conformance"
	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/spell"
	"intellog/internal/workload"
)

// Input sizing. The daemon only ever sees records generated here from
// the seed; nothing below reads a file.
const (
	trainJobs = 48
	epochJobs = 16
	// idleTimeout is the daemon's -idle. Consecutive epochs sit at least
	// twice this far apart in event time, so every session of one epoch
	// idles out while the next epoch streams and the detector, anomaly
	// log and WAL stay at a bounded steady state.
	idleTimeout = 30 * time.Minute
)

// A full cycle is sized against the daemon's lookup cache
// (spell.DefaultLookupCacheSize = 65,536 renderings), on whose two sides
// the frameworks are meant to sit. A Spark cycle is as many epochs as
// keep its distinct renderings under sparkDistinctCap — five to seven,
// ≈ 200–260k records — so the steady state is all memo hits; a fixed
// count would not do, because an epoch's size swings with the seed
// (five epochs are 35k distinct renderings on one seed and 54k on
// another) and the daemon's memory follows the working set. An HDFS
// cycle is hdfsEpochs epochs (≈ 125k records, ≈ 120k distinct), which
// overflow the cache on every seed, so the steady state is all misses.
// Both exceed detect's 32,768-entry per-worker memo. gen_test.go asserts
// the premises.
const (
	sparkDistinctCap = 0.85 * spell.DefaultLookupCacheSize
	sparkMaxEpochs   = 12
	hdfsEpochs       = 8
)

var epochBase = time.Date(2019, 3, 1, 8, 0, 0, 0, time.UTC)

// epoch is one generated corpus: 16 jobs, a quarter of them killed and
// a quarter partitioned, time-sorted the way an aggregated stream
// arrives.
type epoch struct {
	recs     []logging.Record
	sessions []string // distinct session IDs, first-appearance order
	sid      []int32  // per record: index into sessions
	first    time.Time

	// anomalies is the batch reference: what Detector.DetectParallel
	// reports for this epoch's sessions (filled by inputs.reference).
	anomalies int

	// NDJSON line templates, built on first use: line i is
	// `{"Time":"` + time + mid[i] + per-pass session suffix + tail[i].
	mid, tail [][]byte
}

// inputs is everything one workload run feeds the system: the training
// sessions and the cycle of epochs the driver loops over.
type inputs struct {
	fw      logging.Framework
	train   []*logging.Session
	epochs  []*epoch
	stride  time.Duration // event-time distance between epoch starts
	records int           // records per cycle

	// misShift is the deliberate generator fault bench_test.go uses to
	// prove the correctness gate trips: the second half of every epoch
	// is shifted past the idle timeout, so its sessions expire half-way
	// and the daemon sees each as two.
	misShift bool
}

// genInputs builds the inputs for one framework from the seed alone:
// same seed, byte-identical epochs. epochs is the length of the cycle; 0
// asks for the framework's full cycle.
func genInputs(fw logging.Framework, seed int64, epochs int) *inputs {
	in := &inputs{fw: fw}
	cluster := sim.NewCluster(26, seed*100+90)
	in.train = workload.NewGenerator(cluster, seed*100+91).TrainingCorpus(fw, trainJobs)

	fit := epochs == 0 && fw == logging.Spark // size the cycle by its distinct renderings
	switch {
	case fit:
		epochs = sparkMaxEpochs
	case epochs == 0:
		epochs = hdfsEpochs
	}
	distinct := map[string]struct{}{}
	var maxSpan time.Duration
	for e := 0; e < epochs; e++ {
		c := conformance.Spec{
			Framework: fw, Jobs: epochJobs, Seed: seed*100 + int64(e),
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork, sim.FaultNone},
		}.Generate()
		if fit {
			for i := range c.Records {
				distinct[c.Records[i].Message] = struct{}{}
			}
			if e > 0 && float64(len(distinct)) > sparkDistinctCap {
				break // this epoch would take the cycle over the cap
			}
		}
		ep := &epoch{recs: c.Records, sid: make([]int32, len(c.Records))}
		index := map[string]int32{}
		for i := range ep.recs {
			id := ep.recs[i].SessionID
			n, ok := index[id]
			if !ok {
				n = int32(len(ep.sessions))
				index[id] = n
				ep.sessions = append(ep.sessions, id)
			}
			ep.sid[i] = n
		}
		ep.first = ep.recs[0].Time
		if span := ep.recs[len(ep.recs)-1].Time.Sub(ep.first); span > maxSpan {
			maxSpan = span
		}
		in.epochs = append(in.epochs, ep)
		in.records += len(ep.recs)
	}
	in.stride = (maxSpan + 2*idleTimeout).Truncate(time.Minute) + time.Minute
	return in
}

// passView is what turns a stored epoch into the records of one pass:
// the suffixed session IDs and the event-time shift.
type passView struct {
	ids   []string
	shift time.Duration
	// records from jumpAt on are shifted by jump more (misShift only)
	jumpAt int
	jump   time.Duration
}

func (v passView) timeOf(i int, t time.Time) time.Time {
	if v.jump != 0 && i >= v.jumpAt {
		return t.Add(v.shift + v.jump)
	}
	return t.Add(v.shift)
}

// view positions epoch e of the given pass on the monotone event-time
// line: epoch k overall starts at epochBase + k·stride.
func (in *inputs) view(pass, e int) passView {
	ep := in.epochs[e]
	k := pass*len(in.epochs) + e
	v := passView{
		ids:   make([]string, len(ep.sessions)),
		shift: epochBase.Add(time.Duration(k) * in.stride).Sub(ep.first),
	}
	if in.misShift {
		v.jumpAt, v.jump = len(ep.recs)/2, idleTimeout+time.Minute
	}
	suffix := sessionSuffix(pass, e)
	for i, id := range ep.sessions {
		v.ids[i] = id + suffix
	}
	return v
}

func sessionSuffix(pass, e int) string {
	return "-p" + strconv.Itoa(pass) + "-e" + strconv.Itoa(e)
}

// fill appends records [lo,hi) of the epoch as seen through v.
func (ep *epoch) fill(dst []logging.Record, lo, hi int, v passView) []logging.Record {
	for i := lo; i < hi; i++ {
		r := ep.recs[i]
		r.Time = v.timeOf(i, r.Time)
		r.SessionID = v.ids[ep.sid[i]]
		dst = append(dst, r)
	}
	return dst
}

// buildNDJSON pre-encodes the pass-independent part of every record's
// wire line, so rendering a pass is one time format and three appends
// per record and the generator's CPU stays out of the daemon's way.
func (ep *epoch) buildNDJSON() {
	if ep.mid != nil {
		return
	}
	ep.mid = make([][]byte, len(ep.recs))
	ep.tail = make([][]byte, len(ep.recs))
	for i := range ep.recs {
		r := &ep.recs[i]
		mid := append([]byte(nil), `","Level":`...)
		mid = strconv.AppendInt(mid, int64(r.Level), 10)
		mid = appendJSONField(mid, `,"Source":`, r.Source)
		mid = appendJSONField(mid, `,"Message":`, r.Message)
		mid = appendJSONField(mid, `,"Framework":`, string(r.Framework))
		mid = appendJSONField(mid, `,"SessionID":`, r.SessionID)
		ep.mid[i] = mid[:len(mid)-1] // reopen the SessionID literal for the suffix
		ep.tail[i] = append(appendJSONField([]byte(`"`), `,"TemplateID":`, r.TemplateID), "}\n"...)
	}
}

// appendJSONField appends key and the JSON string literal for val: raw
// when val is plain printable ASCII (the shape the daemon's fast decoder
// takes, and what server.Client emits), encoding/json otherwise.
func appendJSONField(dst []byte, key, val string) []byte {
	dst = append(dst, key...)
	for i := 0; i < len(val); i++ {
		if c := val[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			lit, _ := json.Marshal(val) // a string always marshals
			return append(dst, lit...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, val...)
	return append(dst, '"')
}

// fillNDJSON appends the wire lines of records [lo,hi) as seen through v.
func (ep *epoch) fillNDJSON(dst []byte, lo, hi int, pass, e int, v passView) []byte {
	suffix := sessionSuffix(pass, e)
	for i := lo; i < hi; i++ {
		dst = append(dst, `{"Time":"`...)
		dst = v.timeOf(i, ep.recs[i].Time).AppendFormat(dst, time.RFC3339Nano)
		dst = append(dst, ep.mid[i]...)
		dst = append(dst, suffix...)
		dst = append(dst, ep.tail[i]...)
	}
	return dst
}

// Probes are the visibility markers of the open-loop workload: one
// record of unique unmodelled text, which the detector reports as an
// unexpected message the moment it consumes it. A probe rides in the
// session of the record before it: an unmatched record adds exactly one
// finding and leaves the session's structural checks alone, whereas a
// one-record session of its own would add some thirty end-of-session
// findings when it idles out and drown the workload's real anomalies.
const probePrefix = "zqxprobe "

func probeRecord(n int, after *logging.Record) logging.Record {
	return logging.Record{
		Time:      after.Time,
		Level:     logging.Info,
		Source:    "bench.Probe",
		Message:   probePrefix + strconv.Itoa(n) + " wvzk jqyx unmodelled bench marker",
		Framework: after.Framework,
		SessionID: after.SessionID,
	}
}

// probeNumber recognises a probe's message.
func probeNumber(msg string) (int, bool) {
	rest, ok := strings.CutPrefix(msg, probePrefix)
	if !ok {
		return 0, false
	}
	num, _, _ := strings.Cut(rest, " ")
	n, err := strconv.Atoi(num)
	return n, err == nil
}
