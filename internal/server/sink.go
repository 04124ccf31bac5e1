package server

import (
	"slices"
	"sync"

	"intellog/internal/detect"
)

// anomalyLog is one tenant's append-only anomaly history, addressed by
// the streaming detector's emission sequence numbers (Anomaly.Seq). It
// backs the cursor-paginated /v1/anomalies endpoint and the cumulative
// /v1/report view. Retention is bounded: past maxRetain entries the
// oldest are trimmed, and a cursor pointing before the retained window
// simply resumes at its start (the response reports how many findings
// the window has dropped, so clients can tell a gap from a quiet
// stream).
type anomalyLog struct {
	mu sync.Mutex
	// entries holds the retained window. The detector stamps gaplessly
	// and entries only leave pending in seq order, so the log is dense
	// and seq→index is O(1) arithmetic: the anomaly with Seq == first + i
	// sits at entries[(head+i) % len(entries)]. While the log is below
	// its bound (or unbounded) head is 0 and entries grows by append; at
	// the bound it is a ring and each push overwrites the oldest entry,
	// so retention costs the same at any maxRetain.
	entries []detect.Anomaly
	head    int
	// first is the Seq of the oldest retained entry; zero while the log
	// is empty.
	first uint64
	// nextSeq is the seq the dense log admits next. Primed by the tenant
	// from its detector's cursor (prime), so restored tenants continue
	// where the checkpoint left off.
	nextSeq uint64
	// pending parks findings a fast worker appended ahead of a slower
	// worker's lower-seq findings (possible with IngestWorkers > 1); they
	// move to the dense log the moment the gap fills, so readers never
	// see seq go backwards. Nil until first needed.
	pending map[uint64]detect.Anomaly
	// trimmed counts entries dropped by retention since startup.
	trimmed uint64
	// maxRetain bounds len(entries); ≤ 0 means unbounded.
	maxRetain int
	// onAdmit, when set, receives every anomaly the moment the dense log
	// admits it (in seq order, exactly once — duplicates below the cursor
	// never reach it). It is the analytics engine's feed point: retention
	// trimming happens after admission, so aggregation sees the full
	// stream even when the queryable window is bounded. Set before any
	// appends (newTenant wires it ahead of WAL replay and worker start)
	// and invoked outside the log's lock.
	onAdmit func([]detect.Anomaly)
	// det, when set, is the tenant's detector. push then keeps an
	// unexpected-message anomaly as its record alone (detect.Strip), and
	// after, all and get render each copy back (Detector.Render) once
	// they have let go of mu, so a read never holds up the workers'
	// appends. onAdmit still sees every anomaly whole. Set, like
	// onAdmit, before any appends.
	det *detect.Detector
}

func newAnomalyLog(maxRetain int) *anomalyLog {
	return &anomalyLog{maxRetain: maxRetain}
}

// prime sets the next seq the log admits (the detector's cursor + 1).
func (l *anomalyLog) prime(next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq = next
}

// append records stamped anomalies. Appends may arrive out of emission
// order across the ingest worker pool; in-order findings land in the
// dense log immediately, ahead-of-order ones park in pending until the
// missing seqs arrive (they always do: every stamped anomaly is appended
// by the worker that consumed its record before that worker takes more
// work, and control barriers quiesce the pool).
func (l *anomalyLog) append(as []detect.Anomaly) {
	if len(as) == 0 {
		return
	}
	var admitted []detect.Anomaly
	l.mu.Lock()
	for i := range as {
		a := as[i]
		if l.nextSeq == 0 {
			// Unprimed (zero-value log in tests): admit from the first
			// append's leading seq.
			l.nextSeq = a.Seq
		}
		switch {
		case a.Seq == l.nextSeq:
			l.push(a)
			admitted = append(admitted, a)
			l.nextSeq++
			for {
				p, ok := l.pending[l.nextSeq]
				if !ok {
					break
				}
				delete(l.pending, l.nextSeq)
				l.push(p)
				admitted = append(admitted, p)
				l.nextSeq++
			}
		case a.Seq > l.nextSeq:
			if l.pending == nil {
				l.pending = map[uint64]detect.Anomaly{}
			}
			l.pending[a.Seq] = a
		default:
			// Below the admitted cursor: a duplicate; drop it.
		}
	}
	cb := l.onAdmit
	l.mu.Unlock()
	if cb != nil && len(admitted) > 0 {
		cb(admitted)
	}
}

// push appends one in-order anomaly to the dense log and applies
// retention. Caller holds mu.
func (l *anomalyLog) push(a detect.Anomaly) {
	if l.det != nil {
		detect.Strip(&a)
	}
	if len(l.entries) == 0 {
		l.first = a.Seq
	}
	if l.maxRetain <= 0 || len(l.entries) < l.maxRetain {
		l.entries = append(l.entries, a)
		return
	}
	l.entries[l.head] = a
	l.head++
	if l.head == len(l.entries) {
		l.head = 0
	}
	l.first++
	l.trimmed++
}

// at returns the i-th oldest retained entry. Caller holds mu.
func (l *anomalyLog) at(i int) *detect.Anomaly {
	i += l.head
	if i >= len(l.entries) {
		i -= len(l.entries)
	}
	return &l.entries[i]
}

// SeqAnomaly is one anomaly with its cursor, as served to clients.
type SeqAnomaly struct {
	Seq     uint64         `json:"seq"`
	Anomaly detect.Anomaly `json:"anomaly"`
}

// render fills back what push stripped from one copied entry. Called
// without mu.
func (l *anomalyLog) render(a *detect.Anomaly) {
	if l.det != nil {
		l.det.Render(a)
	}
}

// after returns up to limit anomalies with Seq > since, the cursor to
// pass next (the max Seq returned, or since when nothing matched), and
// the total count retention has dropped. limit ≤ 0 means no page bound.
func (l *anomalyLog) after(since uint64, limit int) (out []SeqAnomaly, next uint64, dropped uint64) {
	out, next, dropped = l.copyAfter(since, limit)
	for i := range out {
		l.render(&out[i].Anomaly)
	}
	return out, next, dropped
}

// copyAfter is after's copy of the retained entries, under mu.
func (l *anomalyLog) copyAfter(since uint64, limit int) (out []SeqAnomaly, next uint64, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = since
	dropped = l.trimmed
	if len(l.entries) == 0 {
		return nil, next, dropped
	}
	start := 0
	if since >= l.first {
		// Keep the offset in uint64 and clamp before converting: a
		// client-supplied cursor near MaxUint64 must land past the end,
		// not overflow int and panic indexing.
		d := since - l.first
		if d >= uint64(len(l.entries)) {
			start = len(l.entries)
		} else {
			start = int(d) + 1
		}
	}
	for i := start; i < len(l.entries); i++ {
		if limit > 0 && len(out) >= limit {
			break
		}
		a := l.at(i)
		out = append(out, SeqAnomaly{Seq: a.Seq, Anomaly: *a})
		next = a.Seq
	}
	return out, next, dropped
}

// all copies the retained anomalies in emission order.
func (l *anomalyLog) all() []detect.Anomaly {
	l.mu.Lock()
	out := slices.Concat(l.entries[l.head:], l.entries[:l.head])
	l.mu.Unlock()
	for i := range out {
		l.render(&out[i])
	}
	return out
}

// len returns the retained count.
func (l *anomalyLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// trimmedCount returns how many entries retention has dropped.
func (l *anomalyLog) trimmedCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trimmed
}

// get returns the anomaly at seq, if still retained.
func (l *anomalyLog) get(seq uint64) (detect.Anomaly, bool) {
	l.mu.Lock()
	var a detect.Anomaly
	ok := len(l.entries) > 0 && seq >= l.first && seq-l.first < uint64(len(l.entries))
	if ok {
		a = *l.at(int(seq - l.first))
	}
	l.mu.Unlock()
	l.render(&a)
	return a, ok
}
