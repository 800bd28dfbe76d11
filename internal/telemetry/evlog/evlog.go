// Package evlog is the structured event log: a bounded lock-free ring of
// topology, transaction, supervisor and self-heal events with monotonic
// cursors. Producers (the app's bus-observer bridge, the supervisor, the
// reconfiguration transaction) append from their existing asynchronous
// paths — the bus already fans events out through per-observer mailboxes,
// so no message hot path ever touches the log. Consumers read by cursor
// (`GET /events?since=N` long-polls via Wait), so an operator tailing the
// log sees each event exactly once even across reconnects, and a slow
// reader loses old events rather than stalling writers.
//
// The ring is the same shape as the trace flight recorder: a cursor
// allocates sequence numbers with one atomic add, and each record is
// published with an atomic pointer compare-and-swap into slot
// (seq-1) % cap that never replaces a newer record. Readers walk the
// slots in sequence order and stop at the first reserved but unpublished
// sequence; records overwritten mid-walk simply drop out.
package evlog

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Record is one event. Seq is assigned by Append and is strictly
// monotonic; it doubles as the consumer cursor.
type Record struct {
	Seq      uint64   `json:"seq"`
	TimeNs   int64    `json:"time_ns"`
	Source   string   `json:"source"`             // "bus", "supervisor", "tx"
	Kind     string   `json:"kind"`               // e.g. "add_instance", "health_degraded"
	Instance string   `json:"instance,omitempty"` // subject instance or group
	Detail   string   `json:"detail,omitempty"`
	TraceIDs []uint64 `json:"trace_ids,omitempty"`
}

// Log is the bounded event ring. All methods are safe on a nil receiver,
// so "event log disabled" is just a nil *Log.
type Log struct {
	slots  []atomic.Pointer[Record]
	cursor atomic.Uint64

	// notify is closed and replaced on every append; long-pollers capture
	// the current channel before checking the cursor so a concurrent append
	// can never slip between check and wait.
	mu     sync.Mutex
	notify chan struct{}
}

// NewLog returns a log retaining the last capacity events (default 1024,
// minimum 16).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	if capacity < 16 {
		capacity = 16
	}
	return &Log{
		slots:  make([]atomic.Pointer[Record], capacity),
		notify: make(chan struct{}),
	}
}

// Append records one event, assigning its sequence number and stamping
// TimeNs if unset. It is lock-free with respect to other appenders (the
// notification swap takes a mutex no reader's fast path holds) and safe on
// a nil log.
func (l *Log) Append(rec Record) uint64 {
	if l == nil {
		return 0
	}
	seq := l.cursor.Add(1)
	rec.Seq = seq
	if rec.TimeNs == 0 {
		rec.TimeNs = time.Now().UnixNano()
	}
	l.publish(&rec)

	l.mu.Lock()
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	return seq
}

// publish stores rec in its slot unless a newer record already holds it.
// An appender delayed by a full lap of the ring would otherwise put an
// older record over a newer one, and Since would take the newer sequence
// for unpublished and stop there until the slot's next lap.
func (l *Log) publish(rec *Record) {
	slot := &l.slots[(rec.Seq-1)%uint64(len(l.slots))]
	for {
		old := slot.Load()
		if old != nil && old.Seq > rec.Seq {
			return // lapped: rec is older than the retained window
		}
		if slot.CompareAndSwap(old, rec) {
			return
		}
	}
}

// Since returns the retained records with Seq > after, oldest first, as
// one gap-free run: it stops at the first sequence that is reserved but
// not yet published, so a reader that resumes from the last Seq it got
// never skips an event still being appended. The only gap it allows is
// at the front, where a reader more than Cap events behind has lost the
// overwritten records.
func (l *Log) Since(after uint64) []Record {
	if l == nil {
		return nil
	}
	end := l.cursor.Load()
	n := uint64(len(l.slots))
	seq := after + 1
	if end >= n && seq <= end-n {
		seq = end - n + 1
	}
	var out []Record
	for ; seq <= end; seq++ {
		p := l.slots[(seq-1)%n].Load()
		if p == nil || p.Seq < seq {
			break // reserved, not yet published
		}
		if p.Seq == seq {
			out = append(out, *p)
		}
		// p.Seq > seq: a newer record has overwritten seq already; the
		// reader fell behind mid-scan.
	}
	return out
}

// Wait blocks until at least one record with Seq > after exists (returning
// all of them) or timeout elapses (returning nil). A long-poll primitive:
// the notification channel is captured before the cursor check, so an
// append racing the check wakes the waiter rather than being missed.
func (l *Log) Wait(after uint64, timeout time.Duration) []Record {
	if l == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		ch := l.notify
		l.mu.Unlock()
		if recs := l.Since(after); len(recs) > 0 {
			return recs
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return nil
		}
	}
}

// Cursor returns the sequence number of the newest event (0 when empty).
func (l *Log) Cursor() uint64 {
	if l == nil {
		return 0
	}
	return l.cursor.Load()
}

// Cap returns the ring capacity in events.
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// MemoryBound returns the fixed upper bound, in bytes, of the ring's slot
// array plus fully populated records (excluding variable-length strings).
func (l *Log) MemoryBound() int {
	if l == nil {
		return 0
	}
	var rec Record
	per := int(unsafe.Sizeof(l.slots[0])) + int(unsafe.Sizeof(rec))
	return per * len(l.slots)
}
