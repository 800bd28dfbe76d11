package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// traceEvery samples one message id in traceEvery for message spans.
const traceEvery = 64

func sampled(id int64) bool { return id >= 0 && id%traceEvery == 0 }

// Message span names. Every span of one message shares its id; their
// parent is the message itself ("msg").
const (
	spanEncode   uint8 = iota // gen: codec EncodeValue
	spanBusWrite              // gen: Port.Write
	spanMhRead                // pool worker: rt.Read
	spanMhWrite               // pool worker: rt.Write
	spanBusRead               // sink: Port.Read, including the wait
	spanDecode                // sink: codec DecodeValue
	numSpanNames
)

var spanNames = [numSpanNames]string{"codec.encode", "bus.write", "mh.read", "mh.write", "bus.read", "codec.decode"}

type span struct {
	name       uint8
	id         int64
	start, end int64
}

// durations returns the span durations (ns) by span name.
func durations(spans []span) [numSpanNames][]float64 {
	var out [numSpanNames][]float64
	for _, s := range spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start))
	}
	return out
}

// filterStage returns, per sampled id, the time from the generator's
// write call to a pool worker's Read returning: the filter stage as the
// message saw it (gen ring, interpreted filter, pool ring). It starts at
// the call, not the return, because a remote write returns only after its
// RPC reply, often after the worker already has the message.
func filterStage(spans []span) []float64 {
	written := map[int64]int64{}
	for _, s := range spans {
		if s.name == spanBusWrite {
			written[s.id] = s.start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.name == spanMhRead {
			if w, ok := written[s.id]; ok {
				out = append(out, float64(s.end-w))
			}
		}
	}
	return out
}

// snap is the cumulative counters at one phase boundary.
type snap struct {
	delivered  int64
	mallocs    uint64
	allocBytes uint64
	gcPauses   *metrics.Float64Histogram
	flagChecks int64
	recorded   uint64
	wireBytes  int64
	rpcs       int64
}

func takeSnap(h *harness, t *traffic) snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{delivered: t.delivered.Load(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	sample := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.gcPauses = sample[0].Value.Float64Histogram()
	}
	reg := h.app.Telemetry()
	for _, name := range reg.Names() {
		switch {
		case strings.HasPrefix(name, "mh.") && strings.HasSuffix(name, ".flag_checks"):
			s.flagChecks += reg.Counter(name).Load()
		case strings.HasPrefix(name, "bus.rpc."):
			s.rpcs += reg.Counter(name).Load()
		}
	}
	if rec := h.app.Recorder(); rec != nil {
		s.recorded = rec.Recorded()
	}
	if h.wire != nil {
		s.wireBytes = h.wire.bytes.Load()
	}
	return s
}

// gcPauseQuantile returns the q-quantile (ms) of the GC pauses between two
// snapshots, 0 when no collection paused the program.
func gcPauseQuantile(a, b snap, q float64) float64 {
	if a.gcPauses == nil || b.gcPauses == nil {
		return 0
	}
	counts := make([]uint64, len(b.gcPauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.gcPauses.Counts[i] - a.gcPauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := b.gcPauses.Buckets[i], b.gcPauses.Buckets[i+1]
			if hi > 1e9 { // open-ended last bucket
				hi = lo
			}
			return (lo + (hi-lo)*(rank-cum)/float64(c)) * 1e3
		}
		cum += float64(c)
	}
	return 0
}

// sampler reads the GC heap goal during the measured window and, while
// the traced half runs, the queue depth in front of each stage. The goal
// is the heap size the runtime lets the program reach before it collects;
// sampling the heap itself would catch its sawtooth at a random phase.
type sampler struct {
	h        *harness
	r        *reconfigurer
	start    int64
	stop     chan struct{}
	done     chan struct{}
	goalMax  []float64 // highest heap goal per second of the window
	depthMax [3]int    // filter, pool (all members), sink
}

func startSampler(h *harness, r *reconfigurer, start int64) *sampler {
	s := &sampler{h: h, r: r, start: start, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop() //archlint:spawn heap and queue-depth sampler; exits when stop is closed
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	for {
		metrics.Read(goal)
		w := int((now() - s.start) / statsWindow)
		for len(s.goalMax) <= w {
			s.goalMax = append(s.goalMax, 0)
		}
		s.goalMax[w] = max(s.goalMax[w], float64(goal[0].Value.Uint64()))
		period := 5 * time.Millisecond
		if s.h.tracing.Load() {
			s.sampleQueues()
			period = time.Millisecond
		}
		select {
		case <-s.stop:
			return
		case <-time.After(period):
		}
	}
}

// peakHeap is the 90th percentile over the window's seconds of each
// second's highest heap goal (bytes): near the peak, also where the heap
// grows through the run, but not set by one collection's outlier.
func (s *sampler) peakHeap() float64 { return quantile(s.goalMax, 0.9) }

func (s *sampler) sampleQueues() {
	b := s.h.app.Bus()
	pending := func(inst string) int {
		info, err := b.Info(inst)
		if err != nil {
			return 0
		}
		return info.Pending["in"]
	}
	s.depthMax[0] = max(s.depthMax[0], pending(s.r.filter.Load().(string)))
	members, _ := b.GroupMembers("pool") // a missing group reads as empty
	pool := 0
	for _, m := range members {
		pool += pending(m)
	}
	s.depthMax[1] = max(s.depthMax[1], pool)
	s.depthMax[2] = max(s.depthMax[2], pending("sink"))
}

func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// writeTrace writes every kept span as CSV: kind, name, shared id, parent,
// start and end (ns on the benchmark clock).
func writeTrace(path string, msgSpans []span, r *reconfigurer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,name,id,parent,start_ns,end_ns")
	for _, s := range msgSpans {
		fmt.Fprintf(w, "msg,%s,%d,msg,%d,%d\n", spanNames[s.name], s.id, s.start, s.end)
	}
	for _, rec := range r.replaces {
		fmt.Fprintf(w, "tx,replace,%s,,%d,%d\n", rec.txID, rec.first, rec.end)
		for _, s := range rec.spans {
			fmt.Fprintf(w, "tx,%s,%s,replace,%d,%d\n", s.name, rec.txID, s.start, s.end)
		}
	}
	for _, rec := range r.heals {
		fmt.Fprintf(w, "tx,heal,%s,,%d,%d\n", rec.txID, rec.arm, rec.done)
		for _, s := range rec.spans {
			fmt.Fprintf(w, "tx,%s,%s,heal,%d,%d\n", s.name, rec.txID, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
