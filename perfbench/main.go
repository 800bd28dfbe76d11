// Command perfbench is the repository's benchmark. It loads one MIL
// application (gen -> filter -> pool of 2 replicas -> sink) through the
// public reconf API, drives it with seeded traffic and reconfigurations,
// checks that every message arrives exactly once with the right value, and
// prints the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end list,
// with --trace 1 the per-layer list (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one traffic shape over the shared application.
type workload struct {
	name     string
	rate     int  // open loop: messages per second; 0 runs a closed loop
	window   int  // closed loop: messages in flight
	replaces bool // Update(filter <-> filterV2) every replaceEvery
	kills    bool // crash a pool replica about every killEvery
	gated    bool // record ring and preflight replay gate on every Replace
	remote   bool // gen and sink attached over loopback TCP
	warmup   time.Duration
}

// gated sends at half churn's rate: at 50k msgs/s the record appends and
// the preflight replays leave the application too little headroom on 2
// CPUs, and some runs never drain the backlog the Replaces leave. remote
// keeps 4 messages in flight rather than pipeline's 64: with both ends
// bound by RPC round trips, 64 credits let the sink's backlog wander and
// the latency median with it (see README.md).
var workloads = []workload{
	{name: "pipeline", window: 64, warmup: 2 * time.Second},
	{name: "churn", rate: 50000, replaces: true, kills: true, warmup: time.Second},
	{name: "gated", rate: 25000, replaces: true, gated: true, warmup: time.Second},
	{name: "remote", window: 4, remote: true, warmup: time.Second},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// setupRuns is how many times a run sets the application up; setup_s is
// the median.
const setupRuns = 45

type options struct {
	wl      workload
	seed    int64
	seconds time.Duration
	warmup  time.Duration
	setups  int
	trace   bool
}

func main() {
	name := flag.String("workload", "", "workload: pipeline, churn, gated or remote")
	seed := flag.Int64("seed", 1, "seed for the reconfiguration schedule")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	selftest := flag.Bool("selftest", false, "run every workload briefly and check the output")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	// A run must never hang, even if the application stops delivering
	// before the oracle's own deadlines apply (the set-up probe has none).
	limit := time.Duration(*seconds*float64(time.Second)) + 2*time.Minute
	if *selftest {
		limit = 5 * time.Minute
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v, giving up\n", limit)
		os.Exit(1)
	})

	if *selftest {
		if err := selfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest: ok")
		return
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pipeline|churn|gated|remote --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := options{wl: wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		warmup: wl.warmup, setups: setupRuns, trace: *trace == 1}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stdout)
	out, err := json.Marshal(res.output(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one seeded run of a workload.
func run(o options) (*result, error) {
	sched := newSchedule(o.wl, o.seed, o.seconds)

	// Set up several times; the last application stays up for the run.
	// Each set-up starts from a collected heap, as in a fresh process, so
	// one set-up's garbage is not collected on the next one's clock.
	var setups []setupTimes
	var h *harness
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		hh, st, err := newHarness(o.wl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
		if i < o.setups-1 {
			hh.close()
			continue
		}
		h = hh
	}

	t := newTraffic(h, o.wl, o.warmup, o.seconds, o.trace)
	r := newReconfigurer(h)
	t.start()

	sleepUntil(t.mStart)
	smp := startSampler(h, r, t.mStart)
	r.start(t.mStart, sched)
	s0 := takeSnap(h, t)
	sleepUntil(t.mFlip)
	s1 := takeSnap(h, t)
	sleepUntil(t.mEnd)
	<-t.genDone
	r.wait()
	smp.close()
	t.drain(2 * time.Second)

	sup := h.app.Supervisor("pool").Stats()
	h.close()
	if err := t.stopSink(); err != nil {
		return nil, err
	}

	res := &result{wl: o.wl, seed: o.seed, attempted: t.sent.Load(), aborted: t.aborted}
	res.arrived, res.missing = t.audit()
	res.dup, res.wrong = t.dup, t.wrong
	res.compute(o, t, r, smp, s0, s1, setups, sup)
	if o.trace {
		spans := append(append(t.genSpans, t.sinkSpans...), h.spans...)
		res.layerFromSpans(o.wl, spans, t)
		res.tracePath = fmt.Sprintf(".bench_build/trace/%s-seed%d.csv", o.wl.name, o.seed)
		if err := writeTrace(res.tracePath, spans, r); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}
