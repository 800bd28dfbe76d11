package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/reconfig"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the application sees. Every workload
// reports all of them, from an untraced run, so each must be steady on
// every workload; the rest of the user-facing figures (throughput, tail
// latency, Replace, stall and heal times) lead the per-layer list.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// replacePhases are the tracer spans of a Replace, in order.
var replacePhases = []string{"plan", "add_clone", "quiesce_wait", "state_move", "rebind",
	"launch", "restore_wait", "health_check", "commit_tail"}

// perLayer are the metrics of a traced run. A metric of a layer the
// workload does not exercise reads 0 (see README.md for which moves where).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"throughput_msgs_per_s", "msgs/s"},
		{"latency_p90_ms", "ms"},
		{"latency_p99_ms", "ms"},
		{"replace_p50_ms", "ms"},
		{"replace_p90_ms", "ms"},
		{"stall_p50_ms", "ms"},
		{"heal_p50_ms", "ms"},
		{"msgs_failed_ratio", "ratio"},
		{"reconfig_failed_ratio", "ratio"},
		{"gen.late_p50_ms", "ms"},
		{"gen.late_p99_ms", "ms"},
		{"codec.encode_ns_p50", "ns"},
		{"codec.decode_ns_p50", "ns"},
		{"bus.write_ns_p50", "ns"},
		{"bus.read_wait_ns_p50", "ns"},
		{"bus.queue_depth_max.filter", "count"},
		{"bus.queue_depth_max.pool", "count"},
		{"bus.queue_depth_max.sink", "count"},
		{"mh.read_ns_p50", "ns"},
		{"mh.write_ns_p50", "ns"},
		{"mh.flag_checks_per_msg", "1/msg"},
		{"interp.filter_stage_ns_p50", "ns"},
	}
	for _, p := range replacePhases {
		defs = append(defs, metricDef{"reconfig." + p + "_us_p50", "us"})
	}
	return append(defs,
		metricDef{"reconfig.tx_cost_us_p50", "us"},
		metricDef{"reconfig.queued_at_quiesce", "count"},
		metricDef{"reconfig.busy_retries", "count"},
		metricDef{"reconfig.attempt_success_ratio", "ratio"},
		metricDef{"reconfig.heal_poll_wait_ms_p50", "ms"},
		metricDef{"reconfig.heal_tx_ms_p50", "ms"},
		metricDef{"replay.preflight_replay_us_p50", "us"},
		metricDef{"replay.records_per_msg", "1/msg"},
		metricDef{"bus.tcp.write_rtt_us_p50", "us"},
		metricDef{"bus.tcp.read_rtt_us_p50", "us"},
		metricDef{"bus.tcp.bytes_per_msg", "B/msg"},
		metricDef{"bus.tcp.rpcs_per_msg", "1/msg"},
		metricDef{"go.allocs_per_msg", "1/msg"},
		metricDef{"go.bytes_per_msg", "B/msg"},
		metricDef{"go.gc_pause_p99_ms", "ms"},
		metricDef{"reconf.load_ms", "ms"},
		metricDef{"reconf.start_ms", "ms"},
		metricDef{"trace.latency_p50_overhead_pct", "%"},
		metricDef{"trace.throughput_overhead_pct", "%"},
	)
}()

// result is everything one run measured.
type result struct {
	wl         workload
	seed       int64
	attempted  int64
	arrived    int64   // distinct ids the oracle saw
	missing    []int64 // ids it never saw
	dup, wrong int64
	aborted    string
	invalid    []string
	values     map[string]float64
	tracePath  string
}

func (res *result) failed() int64 { return int64(len(res.missing)) + res.dup + res.wrong }

// compute derives every metric except the span-based per-layer ones.
// Counts and end-to-end figures come from phase A (the untraced window).
func (res *result) compute(o options, t *traffic, r *reconfigurer, smp *sampler, s0, s1 snap,
	setups []setupTimes, sup reconfig.SupervisorStats) {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0 // a layer the workload does not exercise reads 0
	}
	res.values = v
	ms := func(ns float64) float64 { return ns / 1e6 }

	v["throughput_msgs_per_s"] = t.a.throughput()
	v["latency_p50_ms"] = ms(t.a.quantile(0.50))
	v["latency_p90_ms"] = ms(t.a.quantile(0.90))
	v["latency_p99_ms"] = ms(t.a.all.quantile(0.99))
	v["peak_heap_mb"] = smp.peakHeap() / (1 << 20)
	var total, load, start []float64
	for _, s := range setups {
		total = append(total, float64(s.total()))
		load = append(load, float64(s.load))
		start = append(start, float64(s.start))
	}
	v["setup_s"] = quantile(total, 0.5) / 1e9
	v["reconf.load_ms"] = ms(quantile(load, 0.5))
	v["reconf.start_ms"] = ms(quantile(start, 0.5))
	v["msgs_failed_ratio"] = ratio(float64(res.failed()), float64(res.attempted))

	if t.open {
		v["gen.late_p50_ms"] = ms(t.late.quantile(0.50))
		v["gen.late_p99_ms"] = ms(t.late.quantile(0.99))
		if v["gen.late_p50_ms"] > v["latency_p50_ms"]/4 {
			res.invalid = append(res.invalid, fmt.Sprintf("generator ran late: gen.late_p50_ms %.4f > latency_p50_ms/4 %.4f",
				v["gen.late_p50_ms"], v["latency_p50_ms"]/4))
		}
	}

	msgs := float64(s1.delivered - s0.delivered)
	v["go.allocs_per_msg"] = ratio(float64(s1.mallocs-s0.mallocs), msgs)
	v["go.bytes_per_msg"] = ratio(float64(s1.allocBytes-s0.allocBytes), msgs)
	v["go.gc_pause_p99_ms"] = gcPauseQuantile(s0, s1, 0.99)
	v["mh.flag_checks_per_msg"] = ratio(float64(s1.flagChecks-s0.flagChecks), msgs)
	v["replay.records_per_msg"] = ratio(float64(s1.recorded-s0.recorded), msgs)
	v["bus.tcp.bytes_per_msg"] = ratio(float64(s1.wireBytes-s0.wireBytes), msgs)
	v["bus.tcp.rpcs_per_msg"] = ratio(float64(s1.rpcs-s0.rpcs), msgs)
	v["bus.queue_depth_max.filter"] = float64(smp.depthMax[0])
	v["bus.queue_depth_max.pool"] = float64(smp.depthMax[1])
	v["bus.queue_depth_max.sink"] = float64(smp.depthMax[2])

	res.computeReconfig(t, r, sup)

	if o.trace {
		thrB := t.b.throughput()
		latB := ms(t.b.quantile(0.5))
		v["trace.latency_p50_overhead_pct"] = 100 * ratio(latB-v["latency_p50_ms"], v["latency_p50_ms"])
		v["trace.throughput_overhead_pct"] = 100 * ratio(v["throughput_msgs_per_s"]-thrB, v["throughput_msgs_per_s"])
	}
}

// computeReconfig derives the Replace, stall and heal figures.
func (res *result) computeReconfig(t *traffic, r *reconfigurer, sup reconfig.SupervisorStats) {
	v := res.values
	var dur, stall, txCost, queued []float64
	phases := map[string][]float64{}
	busy, failedTx := 0, 0
	for _, rec := range r.replaces {
		busy += rec.busy
		if rec.err != nil {
			failedTx++
			continue
		}
		d := float64(rec.end - rec.start)
		dur = append(dur, d)
		for _, s := range rec.spans {
			phases[s.name] = append(phases[s.name], float64(s.end-s.start))
			if s.name == "quiesce_wait" {
				txCost = append(txCost, d-float64(s.end-s.start))
			}
		}
		if n, ok := queuedAtQuiesce(rec.spans); ok {
			queued = append(queued, float64(n))
		}
		if t.open {
			stall = append(stall, worstLatency(t, rec.first, rec.end))
		}
	}
	v["replace_p50_ms"] = quantile(dur, 0.5) / 1e6
	v["replace_p90_ms"] = quantile(dur, 0.9) / 1e6
	v["stall_p50_ms"] = quantile(stall, 0.5) / 1e6
	for _, p := range replacePhases {
		v["reconfig."+p+"_us_p50"] = quantile(phases[p], 0.5) / 1e3
	}
	v["replay.preflight_replay_us_p50"] = quantile(phases["preflight_replay"], 0.5) / 1e3
	v["reconfig.tx_cost_us_p50"] = quantile(txCost, 0.5) / 1e3
	v["reconfig.queued_at_quiesce"] = quantile(queued, 0.5)
	v["reconfig.busy_retries"] = float64(busy)
	v["reconfig.attempt_success_ratio"] = ratio(float64(len(r.replaces)-failedTx), float64(len(r.replaces)+busy))

	var heal, pollWait, healTx []float64
	for _, rec := range r.heals {
		if !rec.recovered {
			continue
		}
		heal = append(heal, float64(rec.done-rec.arm))
		if rec.txID != "" && rec.detect > 0 {
			pollWait = append(pollWait, float64(rec.txBegin-rec.detect))
			healTx = append(healTx, float64(rec.txEnd-rec.txBegin))
		}
	}
	v["heal_p50_ms"] = quantile(heal, 0.5) / 1e6
	v["reconfig.heal_poll_wait_ms_p50"] = quantile(pollWait, 0.5) / 1e6
	v["reconfig.heal_tx_ms_p50"] = quantile(healTx, 0.5) / 1e6
	healsTried := sup.Recovered + sup.Failed
	v["reconfig_failed_ratio"] = ratio(float64(failedTx)+float64(sup.Failed), float64(len(r.replaces))+float64(healsTried))
}

// worstLatency is the highest latency (ns) among delivered messages
// scheduled in [from, to].
func worstLatency(t *traffic, from, to int64) float64 {
	lo := max((from-t.t0+t.interval-1)/t.interval, 0)
	hi := min((to-t.t0)/t.interval, int64(len(t.lat))-1)
	var worst int32
	for id := lo; id <= hi; id++ {
		worst = max(worst, t.lat[id])
	}
	return float64(worst)
}

// layerFromSpans derives the per-layer timings of the traced half.
func (res *result) layerFromSpans(wl workload, spans []span, t *traffic) {
	v := res.values
	d := durations(spans)
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	v["codec.encode_ns_p50"] = p50(d[spanEncode])
	v["bus.write_ns_p50"] = p50(d[spanBusWrite])
	v["mh.read_ns_p50"] = p50(d[spanMhRead])
	v["mh.write_ns_p50"] = p50(d[spanMhWrite])
	v["bus.read_wait_ns_p50"] = p50(d[spanBusRead])
	v["codec.decode_ns_p50"] = p50(d[spanDecode])
	v["interp.filter_stage_ns_p50"] = p50(filterStage(spans))
	if wl.remote {
		v["bus.tcp.write_rtt_us_p50"] = v["bus.write_ns_p50"] / 1e3
		v["bus.tcp.read_rtt_us_p50"] = v["bus.read_wait_ns_p50"] / 1e3
	}
}

// output is the final JSON line.
func (res *result) output(trace bool) map[string]any {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	correct := res.aborted == "" && len(res.invalid) == 0 && res.dup == 0 && res.wrong == 0
	metrics := map[string]any{}
	for _, d := range defs {
		val, ok := res.values[d.name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) || (!trace && val <= 0) {
			correct = false
			val = 0
		}
		metrics[d.name] = map[string]any{"value": val, "unit": d.unit}
	}
	return map[string]any{"correct": correct, "attempted": res.attempted, "failed": res.failed(), "metrics": metrics}
}

// report prints the run in readable form: every metric measured, the
// oracle's findings and the lost ids.
func (res *result) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d\n", res.wl.name, res.seed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if val, ok := res.values[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, val, d.unit)
			}
		}
	}
	fmt.Fprintf(w, "oracle: sent %d, lost %d, duplicated %d, wrong %d\n",
		res.attempted, len(res.missing), res.dup, res.wrong)
	if len(res.missing) > 0 {
		shown := res.missing[:min(len(res.missing), 64)]
		fmt.Fprintf(w, "oracle: lost ids %v", shown)
		if len(shown) < len(res.missing) {
			fmt.Fprintf(w, " ... (%d more)", len(res.missing)-len(shown))
		}
		fmt.Fprintln(w)
	}
	if res.aborted != "" {
		fmt.Fprintln(w, "generator stopped early:", res.aborted)
	}
	for _, s := range res.invalid {
		fmt.Fprintln(w, "invalid run:", s)
	}
	if res.tracePath != "" {
		fmt.Fprintln(w, "spans written to", res.tracePath)
	}
}
