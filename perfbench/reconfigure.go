package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/reconfig"
	"repro/internal/telemetry"
)

const (
	replaceEvery  = 100 * time.Millisecond
	replaceJitter = 10 * time.Millisecond
	killEvery     = 500 * time.Millisecond
	killJitter    = 200 * time.Millisecond // kills land at k*killEvery + killEvery/2 +- killJitter
	healTimeout   = 5 * time.Second
	busyBackoff   = 200 * time.Microsecond
)

// schedule is the seeded reconfiguration plan of one run: when each
// Replace and each replica kill starts, as offsets from the start of the
// measured window, and which member each kill picks.
type schedule struct {
	replaces []int64
	kills    []int64
	victims  []float64 // in [0,1): the pick among the live members, sorted by name
}

func newSchedule(wl workload, seed int64, seconds time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	if wl.replaces {
		for at := rng.Int63n(int64(replaceEvery)); at < int64(seconds); at += int64(replaceEvery) {
			s.replaces = append(s.replaces, at+rng.Int63n(int64(replaceJitter)))
		}
	}
	if wl.kills {
		for k := int64(0); ; k++ {
			at := k*int64(killEvery) + int64(killEvery)/2 + rng.Int63n(2*int64(killJitter)) - int64(killJitter)
			if at >= int64(seconds) {
				break
			}
			s.kills = append(s.kills, at)
			s.victims = append(s.victims, rng.Float64())
		}
	}
	return s
}

// txSpan is one span of a reconfiguration transaction on the benchmark
// clock.
type txSpan struct {
	name       string
	start, end int64
	notes      []string
}

// replaceRec is one scheduled Replace: first is when it was first
// attempted, [start, end) the call that went through (attempts refused
// with ErrReconfigBusy are retried and counted in busy).
type replaceRec struct {
	txID              string
	first, start, end int64
	busy              int
	err               error
	spans             []txSpan
}

// healRec is one injected replica crash and its recovery.
type healRec struct {
	victim            string
	arm, detect, done int64
	txID              string
	txBegin, txEnd    int64
	recovered         bool
	spans             []txSpan
}

// reconfigurer runs the Replace and kill schedules against a live harness.
type reconfigurer struct {
	h        *harness
	filter   atomic.Value // current filter instance name
	replaces []replaceRec
	heals    []healRec
	wg       sync.WaitGroup
}

func newReconfigurer(h *harness) *reconfigurer {
	r := &reconfigurer{h: h}
	r.filter.Store("filter")
	return r
}

func (r *reconfigurer) start(mStart int64, s schedule) {
	if len(s.replaces) > 0 {
		r.wg.Add(1)
		go r.replaceLoop(mStart, s.replaces) //archlint:spawn Replace schedule; exits after the last scheduled Replace, joined via wg
	}
	if len(s.kills) > 0 {
		r.wg.Add(1)
		go r.killLoop(mStart, s.kills, s.victims) //archlint:spawn kill schedule; exits after the last heal, joined via wg
	}
}

func (r *reconfigurer) wait() { r.wg.Wait() }

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// replaceLoop updates the filter to the other implementation at every
// scheduled offset: filter -> filterV2 -> filter ...
func (r *reconfigurer) replaceLoop(mStart int64, offsets []int64) {
	defer r.wg.Done()
	modules := [2]string{"filterV2", "filter"}
	cur := "filter"
	for k, off := range offsets {
		sleepUntil(mStart + off)
		rec := replaceRec{first: now()}
		opts := reconfig.ReplaceOptions{NewName: "filter" + strconv.Itoa(k+1), Module: modules[k%2]}
		for {
			rec.start = now()
			res, err := r.h.app.ReplaceTx(cur, opts)
			rec.end = now()
			if errors.Is(err, reconfig.ErrReconfigBusy) && rec.end-rec.first < int64(healTimeout) {
				rec.busy++
				time.Sleep(busyBackoff)
				continue
			}
			rec.err = err
			if res != nil {
				rec.txID = res.TxID
				if res.Committed {
					cur = opts.NewName
					r.filter.Store(cur)
				}
			}
			break
		}
		if tr, ok := r.h.app.Primitives().Tracer().Get(rec.txID); ok {
			rec.spans = txSpans(tr)
		}
		r.replaces = append(r.replaces, rec)
	}
}

// killLoop crashes one pool member at every scheduled offset and waits for
// the supervisor to report the rebuild committed.
func (r *reconfigurer) killLoop(mStart int64, offsets []int64, victims []float64) {
	defer r.wg.Done()
	sup := r.h.app.Supervisor("pool")
	events := r.h.app.Events()
	baseWall := base.UnixNano()
	for k, off := range offsets {
		sleepUntil(mStart + off)
		var members []string
		for _, m := range sup.Status().Members {
			members = append(members, m.Name)
		}
		if len(members) == 0 {
			continue
		}
		sort.Strings(members)
		rec := healRec{victim: members[int(victims[k]*float64(len(members)))]}
		cursor := events.Cursor()
		before := sup.Stats().Recovered
		rec.arm = now()
		r.h.faults.Enable("replica.crash."+rec.victim, faultinject.Point{Action: faultinject.Error, Count: 1})
		for now()-rec.arm < int64(healTimeout) {
			if sup.Stats().Recovered > before {
				rec.recovered = true
				break
			}
			time.Sleep(busyBackoff)
		}
		rec.done = now()
		for _, e := range events.Since(cursor) {
			if e.Kind == "detect_exit" && e.Instance == rec.victim {
				rec.detect = e.TimeNs - baseWall
			}
		}
		tracer := r.h.app.Primitives().Tracer()
		ids := tracer.IDs()
		for i := len(ids) - 1; i >= 0; i-- {
			tr, ok := tracer.Get(ids[i])
			if ok && tr.Outcome == "committed" && strings.HasPrefix(tr.Op, "selfheal "+rec.victim+" ->") {
				rec.txID = tr.ID
				rec.txBegin, rec.txEnd = int64(tr.Begin.Sub(base)), int64(tr.End.Sub(base))
				rec.spans = txSpans(tr)
				break
			}
		}
		r.heals = append(r.heals, rec)
	}
}

func txSpans(tr *telemetry.Trace) []txSpan {
	out := make([]txSpan, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		if s.End.IsZero() {
			continue
		}
		out = append(out, txSpan{name: s.Name, start: int64(s.Start.Sub(base)), end: int64(s.End.Sub(base)), notes: s.Notes})
	}
	return out
}

// queuedAtQuiesce counts the messages the quiesce_wait span recorded as
// queued toward the old instance (Bus.QueuedMessages at quiesce entry; the
// span lists up to 16 and summarizes the rest).
func queuedAtQuiesce(spans []txSpan) (int, bool) {
	for _, s := range spans {
		if s.name != "quiesce_wait" {
			continue
		}
		n := 0
		for _, note := range s.notes {
			var more int
			switch {
			case strings.HasPrefix(note, "queued "):
				n++
			case strings.HasPrefix(note, "... and "):
				if _, err := fmt.Sscanf(note, "... and %d more", &more); err == nil {
					n += more
				}
			}
		}
		return n, true
	}
	return 0, false
}
