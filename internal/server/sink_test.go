package server

import (
	"testing"
	"time"

	"intellog/internal/detect"
)

// TestAnomalyLogRingWrapAround compares a bounded log with a plain slice
// of everything ever appended, at every fill level from empty to several
// times around the ring: after (cursor before, inside, at the end of and
// past the retained window, with and without a page limit), get, all,
// len and trimmedCount.
func TestAnomalyLogRingWrapAround(t *testing.T) {
	const retain, total = 8, 29
	l := newAnomalyLog(retain)
	l.prime(1)
	if all := l.all(); all != nil {
		t.Fatalf("empty log: all() = %v, want nil (the report renders it as null)", all)
	}
	for n := 1; n <= total; n++ {
		l.append([]detect.Anomaly{{Seq: uint64(n), Detail: "finding"}})
		first := max(1, n-retain+1) // oldest retained seq
		held := n - first + 1

		if l.len() != held || l.trimmedCount() != uint64(first-1) {
			t.Fatalf("n=%d: len %d trimmed %d, want %d and %d", n, l.len(), l.trimmedCount(), held, first-1)
		}
		all := l.all()
		if len(all) != held || all[0].Seq != uint64(first) || all[held-1].Seq != uint64(n) {
			t.Fatalf("n=%d: all() = %d entries %d..%d, want %d..%d", n, len(all), all[0].Seq, all[len(all)-1].Seq, first, n)
		}
		for seq := 0; seq <= n+2; seq++ {
			a, ok := l.get(uint64(seq))
			if want := seq >= first && seq <= n; ok != want || (ok && a.Seq != uint64(seq)) {
				t.Fatalf("n=%d: get(%d) = seq %d, %v; retained %d..%d", n, seq, a.Seq, ok, first, n)
			}
		}
		for since := 0; since <= n+2; since++ {
			for _, limit := range []int{0, 3} {
				page, next, dropped := l.after(uint64(since), limit)
				from := max(since+1, first)
				want := max(0, n-from+1)
				if limit > 0 {
					want = min(want, limit)
				}
				wantNext := since
				if want > 0 {
					wantNext = from + want - 1
				}
				if len(page) != want || next != uint64(wantNext) || dropped != uint64(first-1) {
					t.Fatalf("n=%d: after(%d,%d) = %d entries, next %d, dropped %d; want %d, %d, %d",
						n, since, limit, len(page), next, dropped, want, wantNext, first-1)
				}
				for i, e := range page {
					if e.Seq != uint64(from+i) || e.Anomaly.Seq != e.Seq {
						t.Fatalf("n=%d: after(%d,%d)[%d] has seq %d, want %d", n, since, limit, i, e.Seq, from+i)
					}
				}
			}
		}
	}
}

// TestAnomalyLogAppendCostAtBound holds the log at its bound and compares
// the cost of one more append at two bounds 128× apart. Retention that
// shifts the window (the old trim) costs in proportion to the bound and
// reads ≈ 128 here; a ring reads ≈ 1. Only the ratio of back-to-back
// measurements is asserted, never a time, and each side takes the best of
// several interleaved rounds, so a slow box cannot fail it.
func TestAnomalyLogAppendCostAtBound(t *testing.T) {
	const appends = 20_000
	atBound := func(retain int) (l *anomalyLog, next uint64) {
		l = newAnomalyLog(retain)
		l.prime(1)
		for next = 1; next <= uint64(retain); next++ {
			l.append([]detect.Anomaly{{Seq: next}})
		}
		return l, next
	}
	small, smallNext := atBound(64)
	large, largeNext := atBound(8192)
	round := func(l *anomalyLog, next *uint64) time.Duration {
		start := time.Now()
		for i := 0; i < appends; i++ {
			l.append([]detect.Anomaly{{Seq: *next}})
			*next++
		}
		return time.Since(start)
	}
	bestSmall, bestLarge := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ {
		bestSmall = min(bestSmall, round(small, &smallNext))
		bestLarge = min(bestLarge, round(large, &largeNext))
	}
	if small.len() != 64 || large.len() != 8192 {
		t.Fatalf("logs left their bounds: %d and %d retained", small.len(), large.len())
	}
	if ratio := float64(bestLarge) / float64(bestSmall); ratio > 4 {
		t.Errorf("append at a bound of 8192 costs %.1f× an append at a bound of 64 (%v vs %v per %d)",
			ratio, bestLarge, bestSmall, appends)
	}
}
