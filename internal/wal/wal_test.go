package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"intellog/internal/logging"
)

func walRecords(prefix string, n int) []logging.Record {
	recs := make([]logging.Record, n)
	base := time.Unix(1700000000, 0).UTC()
	for i := range recs {
		recs[i] = logging.Record{
			Time:      base.Add(time.Duration(i) * time.Second),
			Level:     logging.Info,
			Source:    "scheduler.TaskSetManager",
			Message:   fmt.Sprintf("%s message %d", prefix, i),
			Framework: logging.Spark,
			SessionID: fmt.Sprintf("%s-sess-%d", prefix, i%3),
		}
	}
	return recs
}

func sameRecord(t *testing.T, got, want logging.Record) {
	t.Helper()
	if !got.Time.Equal(want.Time) || got.Level != want.Level ||
		got.Source != want.Source || got.Message != want.Message ||
		got.Framework != want.Framework || got.SessionID != want.SessionID ||
		got.TemplateID != want.TemplateID {
		t.Fatalf("record mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func collect(t *testing.T, l *Log, cursor uint64) []logging.Record {
	t.Helper()
	var out []logging.Record
	n, err := l.ReplayAfter(cursor, func(recs []logging.Record) error {
		out = append(out, recs...)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayAfter(%d): %v", cursor, err)
	}
	if n != uint64(len(out)) {
		t.Fatalf("ReplayAfter reported %d records, delivered %d", n, len(out))
	}
	return out
}

// TestAppendReopenReplay is the basic durability round trip: appended
// batches survive a close/reopen byte-identically and replay in order.
func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := walRecords("a", 7)
	if err := l.Append(want[:3]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(want[3:]); err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 7 {
		t.Fatalf("Seq = %d, want 7", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Seq(); got != 7 {
		t.Fatalf("reopened Seq = %d, want 7", got)
	}
	if got := l2.TornBytes(); got != 0 {
		t.Fatalf("clean log reports %d torn bytes", got)
	}
	got := collect(t, l2, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		sameRecord(t, got[i], want[i])
	}
}

// TestReplayCursorTrim pins the straddling-entry rule: a checkpoint
// cursor landing mid-entry replays only the uncovered suffix of that
// entry, never a covered record twice.
func TestReplayCursorTrim(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := walRecords("trim", 9)
	for i := 0; i < 9; i += 3 { // three entries of three records
		if err := l.Append(want[i : i+3]); err != nil {
			t.Fatal(err)
		}
	}
	for cursor := uint64(0); cursor <= 9; cursor++ {
		got := collect(t, l, cursor)
		rest := want[cursor:]
		if len(got) != len(rest) {
			t.Fatalf("cursor %d: replayed %d records, want %d", cursor, len(got), len(rest))
		}
		for i := range rest {
			sameRecord(t, got[i], rest[i])
		}
	}
}

// TestRotationAndTruncate drives the log across several segments with a
// small rotation threshold, then reclaims them with TruncateThrough and
// proves replay-after-reopen never resurrects a covered record.
func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 1}) // floors to 4096
	if err != nil {
		t.Fatal(err)
	}
	var want []logging.Record
	for i := 0; i < 40; i++ {
		batch := walRecords(fmt.Sprintf("seg%d", i), 10)
		want = append(want, batch...)
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("expected rotation to produce ≥3 segments, got %d", n)
	}

	// Cover half: every fully covered closed segment must be deleted.
	before := countSegments(t, dir)
	cursor := uint64(len(want) / 2)
	if err := l.TruncateThrough(cursor); err != nil {
		t.Fatal(err)
	}
	if after := countSegments(t, dir); after >= before {
		t.Fatalf("TruncateThrough(%d) reclaimed nothing (%d → %d segments)", cursor, before, after)
	}
	got := collect(t, l, cursor)
	rest := want[cursor:]
	if len(got) != len(rest) {
		t.Fatalf("post-truncate replay: %d records, want %d", len(got), len(rest))
	}
	for i := range rest {
		sameRecord(t, got[i], rest[i])
	}

	// Cover everything: the active segment is replaced with a fresh one
	// and a reopened log replays nothing.
	if err := l.TruncateThrough(l.Seq()); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, uint64(len(want))); len(got) != 0 {
		t.Fatalf("fully covered log still replays %d records", len(got))
	}
	seq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Seq(); got != seq {
		t.Fatalf("reopened Seq = %d, want %d", got, seq)
	}
	if got := collect(t, l2, seq); len(got) != 0 {
		t.Fatalf("reopened fully covered log replays %d records", len(got))
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestTornTailHealing simulates the crash the WAL exists for: a partial
// frame at the tail of the active segment. Open must truncate it away,
// keep every complete entry, and leave the log appendable.
func TestTornTailHealing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := walRecords("torn", 5)
	if err := l.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write leaves a prefix of the next frame.
	seg := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendFrame(nil, frameEntry, []byte("half an entry"))
	if _, err := f.Write(torn[:len(torn)-6]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.TornBytes(); got != int64(len(torn)-6) {
		t.Fatalf("TornBytes = %d, want %d", got, len(torn)-6)
	}
	if got := l2.Seq(); got != 5 {
		t.Fatalf("healed Seq = %d, want 5", got)
	}
	more := walRecords("post", 2)
	if err := l2.Append(more); err != nil {
		t.Fatalf("append after healing: %v", err)
	}
	got := collect(t, l2, 0)
	all := append(append([]logging.Record(nil), want...), more...)
	if len(got) != len(all) {
		t.Fatalf("replayed %d records after healing, want %d", len(got), len(all))
	}
	for i := range all {
		sameRecord(t, got[i], all[i])
	}
}

// TestCorruptEntryStopsScan flips a payload byte inside the last entry:
// the CRC discipline must drop that entry (and only it) as a torn tail.
func TestCorruptEntryStopsScan(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walRecords("keep", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walRecords("lose", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segmentExt))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-10] ^= 0x40
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Seq(); got != 3 {
		t.Fatalf("Seq after corrupt tail = %d, want 3", got)
	}
	if got := collect(t, l2, 0); len(got) != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", len(got))
	}
}

// TestSyncPolicies exercises each policy end to end (the observable
// contract is the same; Always and Interval just fsync along the way)
// and pins the flag-string round trip.
func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: p, SyncEvery: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(walRecords(p.String(), 4)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("%v: explicit Sync: %v", p, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), back, err)
		}
	}
	if p, err := ParseSyncPolicy(""); err != nil || p != SyncInterval {
		t.Fatalf("ParseSyncPolicy(\"\") = %v, %v; want the interval default", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

// TestEmptyAppendAndZeroTime: zero-record appends are no-ops, and the
// zero time.Time survives the sentinel encoding.
func TestEmptyAppendAndZeroTime(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if got := l.Seq(); got != 0 {
		t.Fatalf("Seq after empty append = %d", got)
	}
	rec := logging.Record{Message: "no timestamp", SessionID: "s"}
	if err := l.Append([]logging.Record{rec}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
	if !got[0].Time.IsZero() {
		t.Fatalf("zero time came back as %v", got[0].Time)
	}
	sameRecord(t, got[0], rec)
}

// TestAppendEncodedMatchesAppend: logging a batch's encoding as it is
// writes the same segment bytes as Append of its records — each entry
// is AppendBatch's body, so a log written either way replays the same —
// and ReplayEncoded hands back each entry's record bytes, trimmed at a
// cursor that falls inside an entry.
func TestAppendEncodedMatchesAppend(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	la, err := Open(dirA, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Open(dirB, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var all []logging.Record
	for i, n := range []int{3, 1, 5} {
		recs := walRecords(fmt.Sprintf("b%d", i), n)
		all = append(all, recs...)
		var body []byte
		for j := range recs {
			body = AppendRecord(body, &recs[j])
		}
		if err := la.Append(recs); err != nil {
			t.Fatal(err)
		}
		if err := lb.AppendEncoded(len(recs), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := la.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%020d%s", 1, segmentExt)
	a, errA := os.ReadFile(filepath.Join(dirA, name))
	b, errB := os.ReadFile(filepath.Join(dirB, name))
	if errA != nil || errB != nil || string(a) != string(b) {
		t.Fatalf("segments differ (%d vs %d bytes; %v, %v)", len(a), len(b), errA, errB)
	}

	lb, err = Open(dirB, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	const cursor = 5 // inside the third entry, which holds seqs 5–9
	var got []logging.Record
	n, err := lb.ReplayEncoded(cursor, func(count int, body []byte) error {
		for i := 0; i < count; i++ {
			rec, rest, err := DecodeRecord(body)
			if err != nil {
				return err
			}
			got, body = append(got, rec), rest
		}
		if len(body) != 0 {
			return fmt.Errorf("%d bytes past the entry's %d records", len(body), count)
		}
		return nil
	})
	if err != nil || n != uint64(len(got)) || len(got) != len(all)-cursor {
		t.Fatalf("ReplayEncoded(%d) = %d records (%d delivered), %v; want %d", cursor, n, len(got), err, len(all)-cursor)
	}
	for i := range got {
		sameRecord(t, got[i], all[cursor+i])
	}
}
