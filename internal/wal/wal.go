package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"intellog/internal/logging"
)

// frameEntry is the WAL's frame type, distinct from the wire protocol's
// Hello/Batch/Ack so a segment can never be confused for a connection
// capture.
const frameEntry byte = 4

// segmentExt names segment files: <first-seq, zero-padded>.wal.
const segmentExt = ".wal"

// SyncPolicy is when Append fsyncs before acking.
type SyncPolicy int

const (
	// SyncInterval fsyncs at most once per Options.SyncEvery: a crash
	// loses at most that window of acked records. The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every Append returns: an ack means the
	// records are on stable storage, at streaming-throughput cost.
	SyncAlways
	// SyncNone never fsyncs: the OS page cache decides. Survives process
	// crashes (the data is in kernel buffers) but not power loss.
	SyncNone
)

// ParseSyncPolicy maps the flag vocabulary ("always", "interval",
// "none"; empty means interval) to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("unknown WAL sync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Options tunes a Log.
type Options struct {
	Sync         SyncPolicy
	SyncEvery    time.Duration // SyncInterval cadence; 0 means 100ms
	SegmentBytes int64         // rotation threshold; 0 means 8 MiB
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SegmentBytes < 4096 {
		o.SegmentBytes = 4096
	}
	return o
}

// Log is one tenant's write-ahead log: an append-only sequence of
// CRC-framed record batches across size-rotated segment files. Every
// record gets a sequence number (1-based, contiguous); a checkpoint
// that covers records through seq N lets TruncateThrough(N) reclaim
// the segments they occupy, and a boot-time ReplayAfter(N) re-feeds
// exactly the suffix a crash left unapplied.
//
// A torn tail — the partial frame an unlucky crash leaves at the end
// of the active segment — is detected by the frame length/CRC
// discipline at Open and truncated away; by construction it can only
// hold records that were never acked under their sync policy.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment, positioned at its end
	size     int64    // bytes in the active segment
	seq      uint64   // seq of the newest appended record
	segments []uint64 // first seq of each live segment, ascending
	torn     int64    // bytes truncated from the tail at Open
	dirty    bool     // unsynced appends outstanding
	lastSync time.Time
	failed   error // sticky: a failed write poisons the log until reopen
	fbuf     []byte
}

// Open opens (creating if needed) the log in dir, self-healing any torn
// tail on the newest segment.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentExt) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, segmentExt), 10, 64)
		if err != nil || n == 0 {
			continue // stray file; not ours
		}
		firsts = append(firsts, n)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	l := &Log{dir: dir, opts: opts, lastSync: time.Now()}
	if len(firsts) == 0 {
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Only the newest segment can hold a torn tail (older ones were
	// rotated away intact); scanning it yields both the tail cut and the
	// log's record cursor.
	last := firsts[len(firsts)-1]
	next, validOff, size, err := scanSegment(l.segPath(last), last, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.segPath(last), os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	l.torn = size - validOff
	if l.torn > 0 {
		if err := f.Truncate(validOff); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.size = validOff
	l.seq = next - 1
	l.segments = firsts
	return l, nil
}

func (l *Log) segPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%020d%s", first, segmentExt))
}

// Seq returns the sequence number of the newest appended record (0 when
// the log has never held one).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments returns the live segment count.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// TornBytes reports how many torn-tail bytes Open truncated away.
func (l *Log) TornBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}

// Append durably logs a batch of records as one entry. It is
// AppendEncoded over the records' AppendRecord encodings.
func (l *Log) Append(recs []logging.Record) error {
	var body []byte
	for i := range recs {
		body = AppendRecord(body, &recs[i])
	}
	return l.AppendEncoded(len(recs), body)
}

// AppendEncoded durably logs count records, given as their
// concatenated AppendRecord encodings, as one entry (split only if it
// would overflow the frame cap) and advances Seq by count. The entry is
// byte for byte what AppendBatch writes for the same records, so the
// ingest path logs the encoding it received without re-encoding it.
// Whether "durably" means fsynced is the sync policy's call; on return
// under SyncAlways the records are on stable storage. A write failure
// is sticky: the log refuses further appends so callers fail loudly
// instead of acking records the disk silently dropped.
func (l *Log) AppendEncoded(count int, recs []byte) error {
	if count == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal %s: disabled by earlier write failure: %w", l.dir, l.failed)
	}
	if err := l.appendLocked(count, recs); err != nil {
		return err
	}
	switch l.opts.Sync {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			return l.syncLocked()
		}
	}
	return nil
}

func (l *Log) appendLocked(count int, recs []byte) error {
	var hb [2 * binary.MaxVarintLen64]byte
	head := AppendBatchHeader(hb[:0], l.seq+1, count)
	if len(head)+len(recs)+9 > MaxFrame {
		if count == 1 {
			return Errf("record of %d bytes exceeds the frame cap", len(recs))
		}
		half := count / 2
		rest, err := SkipRecords(recs, half)
		if err != nil {
			return err
		}
		if err := l.appendLocked(half, recs[:len(recs)-len(rest)]); err != nil {
			return err
		}
		return l.appendLocked(count-half, rest)
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			return err
		}
	}
	frame := appendFrame2(l.fbuf[:0], frameEntry, head, recs)
	l.fbuf = frame[:0]
	if _, err := l.f.Write(frame); err != nil {
		l.failed = err
		return err
	}
	l.size += int64(len(frame))
	l.seq += uint64(count)
	l.dirty = true
	return nil
}

func (l *Log) rotateLocked() error {
	if l.dirty && l.opts.Sync != SyncNone {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.seq + 1)
}

func (l *Log) openSegmentLocked(first uint64) error {
	f, err := os.OpenFile(l.segPath(first), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size = 0
	l.dirty = false
	l.segments = append(l.segments, first)
	if l.opts.Sync != SyncNone {
		// The new name must itself survive a crash, or a replay would
		// miss the whole segment.
		return syncDir(l.dir)
	}
	return nil
}

// Sync flushes outstanding appends to stable storage regardless of
// policy (shutdown, or an explicit durability point).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.f == nil {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// ReplayAfter feeds every logged record with seq > cursor to fn, in
// append order, entry by entry, plain-copied into records. It is
// ReplayEncoded plus a decode.
func (l *Log) ReplayAfter(cursor uint64, fn func([]logging.Record) error) (uint64, error) {
	var recs []logging.Record
	return l.ReplayEncoded(cursor, func(count int, body []byte) error {
		recs = recs[:0]
		for i := 0; i < count; i++ {
			rec, rest, err := DecodeRecord(body)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
			body = rest
		}
		return fn(recs)
	})
}

// ReplayEncoded feeds every logged record with seq > cursor to fn, in
// append order, entry by entry, as the entry's record count and its
// concatenated AppendRecord encodings (entries that straddle the cursor
// are trimmed to the uncovered suffix). body aliases a read buffer and
// is valid only during the call. Returns how many records fn saw. A fn
// error aborts the replay.
func (l *Log) ReplayEncoded(cursor uint64, fn func(count int, body []byte) error) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var replayed uint64
	for i, first := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1]-1 <= cursor {
			continue // closed segment fully covered by the checkpoint
		}
		if i == len(l.segments)-1 && l.seq <= cursor {
			continue // active segment fully covered
		}
		_, _, _, err := scanSegment(l.segPath(first), first, func(entryFirst uint64, count int, body []byte) error {
			if count == 0 || entryFirst+uint64(count)-1 <= cursor {
				return nil
			}
			if entryFirst <= cursor {
				skip := int(cursor - entryFirst + 1)
				rest, err := SkipRecords(body, skip)
				if err != nil {
					return err
				}
				count, body = count-skip, rest
			}
			replayed += uint64(count)
			return fn(count, body)
		})
		if err != nil {
			return replayed, err
		}
	}
	return replayed, nil
}

// TruncateThrough reclaims every segment whose records are all covered
// by a checkpoint cursor: closed segments are deleted, and a fully
// covered active segment is replaced with a fresh one so boot replay
// never re-reads applied entries.
func (l *Log) TruncateThrough(cursor uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor > l.seq {
		cursor = l.seq
	}
	removed := false
	// Closed segment i spans [segments[i], segments[i+1]-1].
	for len(l.segments) >= 2 && l.segments[1]-1 <= cursor {
		if err := os.Remove(l.segPath(l.segments[0])); err != nil && !os.IsNotExist(err) {
			return err
		}
		l.segments = l.segments[1:]
		removed = true
	}
	if len(l.segments) == 1 && l.seq <= cursor && l.size > 0 && l.f != nil {
		if err := l.f.Close(); err != nil {
			l.failed = err
			return err
		}
		old := l.segments[0]
		l.segments = l.segments[:0]
		if err := os.Remove(l.segPath(old)); err != nil && !os.IsNotExist(err) {
			l.failed = err
			return err
		}
		if err := l.openSegmentLocked(l.seq + 1); err != nil {
			l.failed = err
			return err
		}
		removed = true
	}
	if removed && l.opts.Sync != SyncNone {
		return syncDir(l.dir)
	}
	return nil
}

// Close flushes (under a syncing policy) and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.dirty && l.opts.Sync != SyncNone {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// scanSegment walks one segment file from the start, checking each
// entry (frame envelope, CRC, seq contiguity from first, every record
// decoding with no bytes left over) and calling fn — when non-nil —
// with its record count and record bytes, which alias the read buffer.
// It stops at the first byte that fails any of those checks: that is
// the torn tail a crash mid-write leaves, reported as size-validOff,
// never an error. Only real I/O failures (and fn errors) return
// non-nil.
func scanSegment(path string, first uint64, fn func(entryFirst uint64, count int, body []byte) error) (next uint64, validOff, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return first, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return first, 0, 0, err
	}
	size = fi.Size()
	next = first
	br := bufio.NewReaderSize(f, 32<<10)
	var buf []byte
	for {
		var typ byte
		var body []byte
		typ, body, buf, err = ReadFrame(br, buf, 0)
		if err != nil {
			if errors.Is(err, io.EOF) ||
				errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrWire) {
				return next, validOff, size, nil // clean end or torn tail
			}
			return next, validOff, size, err
		}
		if typ != frameEntry {
			return next, validOff, size, nil
		}
		entryFirst, count, recs, herr := ParseBatchHeader(body)
		if herr != nil || entryFirst != next {
			return next, validOff, size, nil
		}
		if rest, derr := SkipRecords(recs, count); derr != nil || len(rest) != 0 {
			return next, validOff, size, nil
		}
		if fn != nil {
			if ferr := fn(entryFirst, count, recs); ferr != nil {
				return next, validOff, size, ferr
			}
		}
		next += uint64(count)
		validOff += int64(4 + 1 + len(body) + 4)
	}
}

// syncDir fsyncs a directory so file creations and removals inside it
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
