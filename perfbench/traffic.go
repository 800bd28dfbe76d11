package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/state"
)

const (
	ringSize   = 1 << 16                      // closed loop: send-time slots, keyed by id
	creditWait = 2 * time.Second              // a credit this late means messages were lost in flight
	wakeEarly  = int64(10 * time.Microsecond) // about one nanosleep overshoot
)

// traffic is one run's load generator and exactly-once oracle. The
// generator and the sink each run on one goroutine; fields are owned by
// one of the two unless they are atomic.
type traffic struct {
	h    *harness
	open bool

	// Phase boundaries on the benchmark clock. Ids sent before mStart are
	// warm-up; [mStart, mFlip) is phase A (untraced); [mFlip, mEnd) is
	// phase B, traced in a traced run (mFlip == mEnd otherwise).
	t0, mStart, mFlip, mEnd int64
	interval                int64 // open loop: ns between scheduled sends

	// First id of phase A and of phase B. The open loop knows them up
	// front; the closed loop's generator sets them when it crosses the
	// boundary, so they start at MaxInt64 (everything is warm-up).
	idA, idB atomic.Int64

	sent      atomic.Int64 // ids 0..sent-1 have been written
	delivered atomic.Int64 // messages read by the sink, all phases
	genDone   chan struct{}
	sinkDone  chan struct{}
	aborted   string // generator stopped early, and why

	// generator-owned
	credits  chan struct{}
	late     hist // open loop: send time minus scheduled time, phase A
	genSpans []span

	// closed-loop send times, written by the generator before the write
	// and read by the sink after the message crossed the bus.
	sendNs [ringSize]int64
	sendID [ringSize]int64

	// sink-owned
	seen       []uint64 // exactly-once bitmap by id
	dup, wrong int64
	a, b       *phaseStats
	lat        []int32 // open loop: latency per id (ns, 0 = not delivered)
	sinkSpans  []span
}

func newTraffic(h *harness, wl workload, warm, seconds time.Duration, traced bool) *traffic {
	open := wl.rate > 0
	t := &traffic{h: h, open: open, genDone: make(chan struct{}), sinkDone: make(chan struct{})}
	t.t0 = now() + int64(time.Millisecond)
	t.mStart = t.t0 + int64(warm)
	t.mEnd = t.mStart + int64(seconds)
	t.mFlip = t.mEnd
	if traced {
		t.mFlip = t.mStart + int64(seconds)/2
	}
	t.idA.Store(math.MaxInt64)
	t.idB.Store(math.MaxInt64)
	t.a = newPhaseStats(t.mStart, t.mFlip)
	t.b = newPhaseStats(t.mFlip, t.mEnd)
	if open {
		t.interval = int64(time.Second) / int64(wl.rate)
		n := (t.mEnd - t.t0) / t.interval
		t.lat = make([]int32, n)
		t.seen = make([]uint64, n/64+1)
		t.idA.Store((t.mStart - t.t0) / t.interval)
		t.idB.Store((t.mFlip - t.t0) / t.interval)
	} else {
		t.credits = make(chan struct{}, wl.window)
		for i := 0; i < wl.window; i++ {
			t.credits <- struct{}{}
		}
		t.seen = make([]uint64, 1<<17) // 8M ids; grown by the sink past that
	}
	return t
}

func (t *traffic) start() {
	go t.sinkLoop() //archlint:spawn benchmark sink; exits when the sink port is closed at teardown
	if t.open {
		go t.openLoop() //archlint:spawn open-loop generator; exits after the last scheduled id
	} else {
		go t.closedLoop() //archlint:spawn closed-loop generator; exits at mEnd or on a lost credit
	}
}

// closedLoop keeps the workload's window of messages in flight: each
// delivery returns one credit. Latency is timed from the write call.
func (t *traffic) closedLoop() {
	defer close(t.genDone)
	timer := time.NewTimer(creditWait)
	timer.Stop()
	for id := int64(0); ; id++ {
		select {
		case <-t.credits:
		default:
			timer.Reset(creditWait)
			select {
			case <-t.credits:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				t.aborted = fmt.Sprintf("no credit for %v at id %d: messages lost in flight", creditWait, id)
				return
			}
		}
		ts := now()
		if ts >= t.mEnd {
			return
		}
		if ts >= t.mStart && t.idA.Load() == math.MaxInt64 {
			t.idA.Store(id)
		}
		if ts >= t.mFlip && t.idB.Load() == math.MaxInt64 {
			t.idB.Store(id)
			t.h.tracing.Store(true)
		}
		t.sendNs[id%ringSize] = ts
		t.sendID[id%ringSize] = id
		if err := t.send(id); err != nil {
			t.aborted = err.Error()
			return
		}
	}
}

// openLoop writes id k at t0 + k*interval regardless of how the system
// keeps up. It waits in a high-resolution sleep that ends wakeEarly before
// the deadline and spins the last stretch, because a Go timer sleep
// overshoots by about a millisecond. After each send it yields, so the
// stages the write woke run on this processor at once instead of waiting
// in its run queue while the generator sleeps; spinning throughout would
// instead keep the processor from the application (see README.md).
func (t *traffic) openLoop() {
	defer close(t.genDone)
	idA, idB := t.idA.Load(), t.idB.Load()
	n := int64(len(t.lat))
	for id := int64(0); id < n; id++ {
		due := t.t0 + id*t.interval
		ts := now()
		if due-ts > wakeEarly {
			preciseSleep(due - ts - wakeEarly)
		}
		for ts < due {
			ts = now()
		}
		if id == idB {
			t.h.tracing.Store(true)
		}
		if id >= idA && id < idB {
			t.late.add(ts - due)
		}
		if err := t.send(id); err != nil {
			t.aborted = err.Error()
			return
		}
		runtime.Gosched()
	}
}

// send encodes one id and writes it on the gen port; a traced run keeps
// spans for sampled ids of phase B.
func (t *traffic) send(id int64) error {
	traced := id >= t.idB.Load() && sampled(id)
	var t0 int64
	if traced {
		t0 = now()
	}
	data, err := t.h.codec.EncodeValue(state.IntValue(id))
	if err != nil {
		return fmt.Errorf("encode id %d: %w", id, err)
	}
	var t1 int64
	if traced {
		t1 = now()
	}
	if err := t.h.gen.Write("out", data); err != nil {
		return fmt.Errorf("write id %d: %w", id, err)
	}
	t.sent.Store(id + 1)
	if traced {
		t.genSpans = append(t.genSpans,
			span{name: spanEncode, id: id, start: t0, end: t1},
			span{name: spanBusWrite, id: id, start: t1, end: now()})
	}
	return nil
}

// sinkLoop is the oracle: every id must arrive exactly once carrying
// 3*id+1. It records latency by phase and, in the closed loop, returns a
// credit per message.
func (t *traffic) sinkLoop() {
	defer close(t.sinkDone)
	for {
		tracing := t.h.tracing.Load()
		var r0 int64
		if tracing {
			r0 = now()
		}
		m, err := t.h.sink.Read("in")
		if err != nil {
			return
		}
		r1 := now()
		v, err := t.h.codec.DecodeValue(m.Data)
		r2 := r1
		if tracing {
			r2 = now()
		}
		t.delivered.Add(1)
		id := int64(-1)
		if err == nil && v.Kind == state.KindInt && (v.Int-1)%3 == 0 {
			id = (v.Int - 1) / 3
		}
		if !t.check(id) {
			t.credit()
			continue
		}
		sentAt := int64(-1) // unknown: the send slot was reused by a message 65536 ids later
		switch {
		case t.open:
			sentAt = t.t0 + id*t.interval
			t.lat[id] = int32(min(max(r1-sentAt, 1), math.MaxInt32))
		case t.sendID[id%ringSize] == id:
			sentAt = t.sendNs[id%ringSize]
		}
		switch {
		case id < t.idA.Load():
		case id < t.idB.Load():
			t.a.add(sentAt, r1)
		default:
			t.b.add(sentAt, r1)
			if tracing && sampled(id) {
				t.sinkSpans = append(t.sinkSpans,
					span{name: spanBusRead, id: id, start: r0, end: r1},
					span{name: spanDecode, id: id, start: r1, end: r2})
			}
		}
		t.credit()
	}
}

// check marks id as seen and reports whether it is a first delivery. A
// value that is no id of this run counts as wrong, a second delivery as a
// duplicate.
func (t *traffic) check(id int64) bool {
	if id < 0 || id > t.sent.Load() || (t.open && id >= int64(len(t.lat))) {
		t.wrong++
		return false
	}
	w := id / 64
	for !t.open && w >= int64(len(t.seen)) {
		t.seen = append(t.seen, make([]uint64, len(t.seen))...)
	}
	bit := uint64(1) << uint(id%64)
	if t.seen[w]&bit != 0 {
		t.dup++
		return false
	}
	t.seen[w] |= bit
	return true
}

// credit returns one closed-loop credit. It never blocks: a duplicate
// delivery would otherwise return a credit the window never lent.
func (t *traffic) credit() {
	if !t.open {
		select {
		case t.credits <- struct{}{}:
		default:
		}
	}
}

// drain waits until every sent message is delivered or until deadline
// passes with nothing new arriving, whichever comes first. It never hangs
// on a lost message.
func (t *traffic) drain(quiet time.Duration) {
	<-t.genDone
	last, lastChange := t.delivered.Load(), time.Now()
	for t.delivered.Load() < t.sent.Load() && time.Since(lastChange) < quiet {
		time.Sleep(time.Millisecond)
		if d := t.delivered.Load(); d != last {
			last, lastChange = d, time.Now()
		}
	}
}

// audit walks every sent id once the sink has exited: it returns how many
// arrived and which never did.
func (t *traffic) audit() (arrived int64, missing []int64) {
	n := t.sent.Load()
	for id := int64(0); id < n; id++ {
		w := id / 64
		if w < int64(len(t.seen)) && t.seen[w]&(1<<uint(id%64)) != 0 {
			arrived++
		} else {
			missing = append(missing, id)
		}
	}
	return arrived, missing
}

// stopSink waits for the sink goroutine after its port was closed.
func (t *traffic) stopSink() error {
	select {
	case <-t.sinkDone:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("sink did not exit after teardown")
	}
}

// statsWindow is the width of the send-time windows a phase's latency is
// summarized over.
const statsWindow = int64(time.Second)

// phaseStats accumulates the deliveries of one phase. Latency quantiles
// are taken per one-second window of send time and summarized by their
// median across windows, so one disturbed second moves a run's figure
// less than a quantile over the whole phase would.
type phaseStats struct {
	start     int64
	wins      []hist
	all       hist
	delivered int64
	last      int64 // latest delivery time
}

func newPhaseStats(start, end int64) *phaseStats {
	n := max((end-start+statsWindow-1)/statsWindow, 1)
	return &phaseStats{start: start, last: start, wins: make([]hist, n)}
}

// add records one delivery; sentAt < 0 counts it without a latency.
func (p *phaseStats) add(sentAt, recvAt int64) {
	p.delivered++
	p.last = max(p.last, recvAt)
	if sentAt < 0 {
		return
	}
	lat := recvAt - sentAt
	w := min(max((sentAt-p.start)/statsWindow, 0), int64(len(p.wins)-1))
	p.wins[w].add(lat)
	p.all.add(lat)
}

// quantile returns the median over windows of each window's q-quantile
// (ns). A window with fewer than 100 latencies is left out.
func (p *phaseStats) quantile(q float64) float64 {
	var qs []float64
	for i := range p.wins {
		if p.wins[i].n >= 100 {
			qs = append(qs, p.wins[i].quantile(q))
		}
	}
	return quantile(qs, 0.5)
}

// throughput is deliveries per second from the phase start to the last
// delivery.
func (p *phaseStats) throughput() float64 {
	return ratio(float64(p.delivered), float64(p.last-p.start)/1e9)
}
