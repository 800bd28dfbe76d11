package evlog

import (
	"sync"
	"testing"
	"time"
)

func TestAppendAssignsMonotonicSeq(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 5; i++ {
		seq := l.Append(Record{Source: "test", Kind: "tick"})
		if seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	recs := l.Since(0)
	if len(recs) != 5 {
		t.Fatalf("Since(0) = %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
		if r.TimeNs == 0 {
			t.Errorf("record %d missing timestamp", i)
		}
	}
}

func TestSinceCursor(t *testing.T) {
	l := NewLog(64)
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: "e"})
	}
	recs := l.Since(7)
	if len(recs) != 3 || recs[0].Seq != 8 {
		t.Fatalf("Since(7) = %+v, want seqs 8..10", recs)
	}
	if got := l.Since(10); len(got) != 0 {
		t.Errorf("Since(cursor) = %d records, want 0", len(got))
	}
	if l.Cursor() != 10 {
		t.Errorf("Cursor = %d, want 10", l.Cursor())
	}
}

func TestRingOverwrite(t *testing.T) {
	l := NewLog(16)
	for i := 0; i < 40; i++ {
		l.Append(Record{Kind: "e"})
	}
	recs := l.Since(0)
	if len(recs) != 16 {
		t.Fatalf("retained %d records, want ring cap 16", len(recs))
	}
	if recs[0].Seq != 25 || recs[15].Seq != 40 {
		t.Errorf("retained seqs %d..%d, want 25..40", recs[0].Seq, recs[15].Seq)
	}
}

func TestWaitWakesOnAppend(t *testing.T) {
	l := NewLog(16)
	l.Append(Record{Kind: "old"})
	done := make(chan []Record, 1)
	go func() { done <- l.Wait(1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	l.Append(Record{Kind: "fresh"})
	select {
	case recs := <-done:
		if len(recs) != 1 || recs[0].Kind != "fresh" {
			t.Fatalf("Wait returned %+v, want the fresh record", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on append")
	}
}

func TestWaitTimesOut(t *testing.T) {
	l := NewLog(16)
	start := time.Now()
	if recs := l.Wait(0, 20*time.Millisecond); recs != nil {
		t.Fatalf("Wait on empty log = %+v, want nil", recs)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("Wait returned before the timeout")
	}
}

func TestWaitReturnsImmediatelyWhenBehind(t *testing.T) {
	l := NewLog(16)
	l.Append(Record{Kind: "e"})
	start := time.Now()
	recs := l.Wait(0, 5*time.Second)
	if len(recs) != 1 {
		t.Fatalf("Wait = %d records, want 1", len(recs))
	}
	if time.Since(start) > time.Second {
		t.Error("Wait blocked although records were already available")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog(256)
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(Record{Kind: "e"})
			}
		}()
	}
	wg.Wait()
	if l.Cursor() != writers*per {
		t.Fatalf("cursor = %d, want %d", l.Cursor(), writers*per)
	}
	recs := l.Since(writers*per - 256)
	if len(recs) != 256 {
		t.Fatalf("retained %d records, want 256", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap in retained seqs: %d -> %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestNilLog(t *testing.T) {
	var l *Log
	if seq := l.Append(Record{}); seq != 0 {
		t.Error("nil Append returned nonzero seq")
	}
	if l.Since(0) != nil || l.Wait(0, time.Millisecond) != nil {
		t.Error("nil reads returned records")
	}
	if l.Cursor() != 0 || l.Cap() != 0 || l.MemoryBound() != 0 {
		t.Error("nil accessors returned nonzero")
	}
}

func TestMemoryBound(t *testing.T) {
	l := NewLog(1024)
	if l.MemoryBound() <= 0 {
		t.Fatal("zero memory bound")
	}
	before := l.MemoryBound()
	for i := 0; i < 5000; i++ {
		l.Append(Record{Kind: "e"})
	}
	if l.MemoryBound() != before {
		t.Error("memory bound changed with appends; must be fixed at construction")
	}
}

// TestResumeFromLastSeqLosesNothing races two appenders against a reader
// that resumes from the last Seq it was given, the way an /events client
// pages the log. The ring is large enough that the reader never falls a
// full capacity behind, so every one of the events must arrive exactly
// once and in order. A Since that returned records published past a
// still-unpublished sequence would make the reader skip that sequence for
// good.
func TestResumeFromLastSeqLosesNothing(t *testing.T) {
	const appenders, per = 2, 50000
	l := NewLog(1 << 18)
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(Record{Kind: "e"})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var cursor, missed uint64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // every append is published: drain the rest
		default:
		}
		for _, r := range l.Since(cursor) {
			if r.Seq <= cursor {
				t.Fatalf("resumed after %d, got seq %d again", cursor, r.Seq)
			}
			missed += r.Seq - cursor - 1
			cursor = r.Seq
		}
	}
	if missed != 0 || cursor != appenders*per {
		t.Fatalf("reader missed %d of %d events (last seq %d)", missed, appenders*per, cursor)
	}
}

// TestSinceStopsAtUnpublishedSeq pins the state the race above hits: an
// appender has reserved seq 2 but not yet stored it, and seq 3 is already
// published. Since must not hand out seq 3, or a reader resuming from it
// skips seq 2 for good.
func TestSinceStopsAtUnpublishedSeq(t *testing.T) {
	l := NewLog(16)
	l.Append(Record{Kind: "first"})
	reserved := l.cursor.Add(1) // Append's reservation, before its Store
	l.Append(Record{Kind: "third"})

	if recs := l.Since(0); len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("Since(0) with seq 2 unpublished = %+v, want only seq 1", recs)
	}
	if recs := l.Since(1); len(recs) != 0 {
		t.Fatalf("Since(1) with seq 2 unpublished = %+v, want none", recs)
	}
	l.publish(&Record{Seq: reserved, Kind: "second"})
	recs := l.Since(1)
	if len(recs) != 2 || recs[0].Seq != 2 || recs[1].Seq != 3 {
		t.Fatalf("Since(1) after publishing seq 2 = %+v, want seqs 2, 3", recs)
	}
}

// TestLappedAppendKeepsNewerRecord pins the wrap case: an appender that
// reserved seq 2 publishes only after the ring has lapped it and seq 18
// holds the same slot. Its late store must not replace seq 18, or Since
// would stop at 18 as if it were unpublished until the slot's next lap.
func TestLappedAppendKeepsNewerRecord(t *testing.T) {
	l := NewLog(16)
	l.Append(Record{Kind: "first"})
	reserved := l.cursor.Add(1)
	for i := 0; i < 16; i++ {
		l.Append(Record{Kind: "later"})
	}
	l.publish(&Record{Seq: reserved, Kind: "late"})

	recs := l.Since(reserved)
	if len(recs) != 16 || recs[0].Seq != 3 || recs[15].Seq != 18 {
		t.Fatalf("Since(%d) after a lapped publish = %d records, want seqs 3..18", reserved, len(recs))
	}
	if recs := l.Since(0); len(recs) != 16 || recs[15].Seq != 18 {
		t.Fatalf("Since(0) after a lapped publish = %d records, want the 16 newest", len(recs))
	}
}
