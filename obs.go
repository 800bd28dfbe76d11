package reconf

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/reconfig"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/trace"
)

// This file is the HTTP operator surface of an App: one route table,
// served read-only by ServeObs and read-write by ServeControl (the
// listener cmd/reconfigctl drives). GET routes, served by both:
//
//	/metrics     the full telemetry registry plus the bus activity counters,
//	             in the Prometheus text exposition format with per-instance
//	             labels (bus_iface_delivered{instance,interface}, ...)
//	/healthz     liveness/readiness: 200 "ok", or 503 "reconfiguring" while
//	/readyz      a transactional reconfiguration is in flight (in this
//	             single-process reproduction the two collapse to one signal)
//	/topology    the Figure 1 view of instances and bindings (text)
//	/instances   live instance names (JSON list)
//	/trace       the primitive audit trail (JSON list)
//	/trace/{id}  one causal chain ("tx-0001" renders a transaction's span
//	             timeline; a numeric ID returns that message trace's spans)
//	/traces      the flight recorder's retained delivery spans, as JSON
//	/stats       bus counters, the telemetry snapshot and the retained
//	             transaction IDs, as one JSON document
//	/watch       the per-instance table over the last ?windows=k rolled
//	             windows (text)
//	/replicas    every supervised replica group: live members with heartbeat
//	             and backlog, corpses awaiting rebuild, supervision counters
//	/record      the record ring's status
//	/replay/{id} replay the recorded window against instance id's module
//	             in-process and report whether the outputs reproduce
//	/timeseries  windowed rollups: no params lists metric names; ?metric=
//	             returns its windows (?window= caps how many)
//	/health/{i}  instance i's structured verdict (?baseline=a,b overrides
//	             the default peer baseline)
//	/events      the structured event log from ?since= (exclusive cursor);
//	             ?wait=seconds long-polls for fresh events
//	/debug/pprof runtime profiling, only when enabled with WithPprof
//
// POST routes, served by ServeControl only, each taking a JSON body:
//
//	/move        {"instance", "new_name", "machine"}
//	/replace     {"instance", "new_name", "machine", "module"}
//	/update      {"instance", "new_name", "module"}
//	/plan        the /replace body; answers the step list, runs nothing
//	/replicate   {"instance", "new_name", "machine"}
//	/remove      {"instance"}
//	/record      {"enabled": true|false} toggles recording
//
// A POST whose Host header is neither an IP literal nor localhost is
// refused with 403, so a DNS-rebound web page cannot drive a
// reconfiguration. move, replace and update answer with the TxReport,
// with status 409 when the transaction failed (the report then shows the
// rollback). Every other refusal by the application is a 409 with the
// error text.
type ObsServer struct {
	srv *http.Server
	l   net.Listener
}

// ObsOption configures ServeObs.
type ObsOption func(*obsConfig)

type obsConfig struct {
	pprof bool
}

// WithPprof mounts net/http/pprof under /debug/pprof/ on the obs mux. Off
// by default: profiling endpoints expose stacks and heap contents, so they
// are opt-in (polybus -pprof).
func WithPprof() ObsOption {
	return func(c *obsConfig) { c.pprof = true }
}

// ServeObs starts serving the read-only operator routes on l. Close the
// returned server to stop.
func (a *App) ServeObs(l net.Listener, opts ...ObsOption) *ObsServer {
	var cfg obsConfig
	for _, o := range opts {
		o(&cfg)
	}
	return a.serveHTTP(l, false, cfg)
}

// ServeControl starts serving every operator route on l: the read-only
// routes of ServeObs plus the reconfiguration routes (POST). Close the
// returned server to stop.
func (a *App) ServeControl(l net.Listener) *ObsServer {
	return a.serveHTTP(l, true, obsConfig{})
}

func (a *App) serveHTTP(l net.Listener, control bool, cfg obsConfig) *ObsServer {
	mux := http.NewServeMux()
	for _, r := range a.routes() {
		if r.method == http.MethodPost && !control {
			continue
		}
		mux.HandleFunc(r.method+" "+r.path, r.handler)
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Slowloris hardening: a client must finish its headers and body
	// promptly. WriteTimeout leaves room for the /events long-poll (capped
	// at maxEventWait) plus response transfer; mutations lift it (see
	// mutation).
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      maxEventWait + 30*time.Second,
	}
	go func() { _ = srv.Serve(l) }() //archlint:spawn HTTP server; exits when srv.Close is called
	return &ObsServer{srv: srv, l: l}
}

// Addr returns the listener address.
func (o *ObsServer) Addr() net.Addr { return o.l.Addr() }

// Close stops the server and closes the listener.
func (o *ObsServer) Close() error { return o.srv.Close() }

// route is one operator endpoint.
type route struct {
	method, path string
	handler      http.HandlerFunc
}

// routes is the operator route table. A path ending in "/" takes the rest
// of the URL path as its argument.
func (a *App) routes() []route {
	return []route{
		{"GET", "/metrics", a.handleMetrics},
		{"GET", "/healthz", a.handleHealth},
		{"GET", "/readyz", a.handleHealth},
		{"GET", "/topology", a.handleTopology},
		{"GET", "/instances", a.handleInstances},
		{"GET", "/trace", a.handleAuditTrail},
		{"GET", "/trace/", a.handleTrace},
		{"GET", "/traces", a.handleTraces},
		{"GET", "/stats", a.handleStats},
		{"GET", "/watch", a.handleWatch},
		{"GET", "/replicas", a.handleReplicas},
		{"GET", "/record", a.handleRecordStatus},
		{"GET", "/replay/", a.handleReplay},
		{"GET", "/timeseries", a.handleTimeseries},
		{"GET", "/health/", a.handleInstanceHealth},
		{"GET", "/events", a.handleEvents},

		{"POST", "/move", mutation(func(w http.ResponseWriter, q opRequest) {
			q.Module = ""
			a.serveTx(w, q)
		})},
		{"POST", "/replace", mutation(a.serveTx)},
		{"POST", "/update", mutation(func(w http.ResponseWriter, q opRequest) {
			q.Machine = ""
			a.serveTx(w, q)
		})},
		{"POST", "/plan", mutation(a.servePlan)},
		{"POST", "/replicate", mutation(func(w http.ResponseWriter, q opRequest) {
			writeDone(w, a.Replicate(q.Instance, q.NewName, q.Machine))
		})},
		{"POST", "/remove", mutation(func(w http.ResponseWriter, q opRequest) {
			writeDone(w, a.Remove(q.Instance))
		})},
		{"POST", "/record", mutation(a.serveSetRecording)},
	}
}

// opRequest is the body of the reconfiguration routes; each route reads
// the fields it needs.
type opRequest struct {
	Instance string `json:"instance"`
	NewName  string `json:"new_name"`
	Machine  string `json:"machine"`
	Module   string `json:"module"`
}

func (q opRequest) replaceOptions() reconfig.ReplaceOptions {
	return reconfig.ReplaceOptions{NewName: q.NewName, Machine: q.Machine, Module: q.Module}
}

// maxBodyBytes bounds a mutation's request body.
const maxBodyBytes = 64 << 10

// mutation adapts a POST handler: the request must name the server by
// address or as localhost (see addressedHost), the body must be
// application/json (a cross-site HTML form cannot send that type without a
// CORS preflight), at most maxBodyBytes long, and decode into T with no
// unknown fields.
func mutation[T any](h func(http.ResponseWriter, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !addressedHost(r.Host) {
			http.Error(w, "reconfiguration requests must address the server by IP or as localhost", http.StatusForbidden)
			return
		}
		if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt != "application/json" {
			http.Error(w, "request body must be application/json", http.StatusUnsupportedMediaType)
			return
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		var req T
		if err := dec.Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad request body: "+err.Error(), status)
			return
		}
		// A transaction is bounded by its own Timeouts, which can exceed
		// the server's WriteTimeout; the operator must still get the report.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
		h(w, req)
	}
}

// addressedHost reports whether a request's Host header is an IP literal
// or localhost, with or without a port. A page served from a hostname that
// DNS rebinding points at a loopback listener is same-origin with it and
// may POST JSON without a preflight, but its requests carry that hostname.
func addressedHost(host string) bool {
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	host = strings.TrimSuffix(strings.TrimPrefix(host, "["), "]")
	return strings.EqualFold(host, "localhost") || net.ParseIP(host) != nil
}

// serveTx runs a replacement-family script and answers with its
// transaction report, also when the transaction failed, so the operator
// sees the step trace and any rollback.
func (a *App) serveTx(w http.ResponseWriter, q opRequest) {
	res, err := a.ReplaceTx(q.Instance, q.replaceOptions())
	status := http.StatusOK
	if err != nil {
		status = http.StatusConflict
	}
	writeJSONStatus(w, status, txReport(res))
}

func (a *App) servePlan(w http.ResponseWriter, q opRequest) {
	steps, err := a.PlanReplace(q.Instance, q.replaceOptions())
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, steps)
}

// recordRequest is the body of POST /record.
type recordRequest struct {
	Enabled *bool `json:"enabled"`
}

func (a *App) serveSetRecording(w http.ResponseWriter, q recordRequest) {
	if q.Enabled == nil {
		http.Error(w, `body must set "enabled"`, http.StatusBadRequest)
		return
	}
	if err := a.SetRecording(*q.Enabled); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, a.RecordStatus())
}

// writeDone answers a mutation without a result document.
func writeDone(w http.ResponseWriter, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (a *App) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := a.bus.Stats()
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"bus_delivered_total", st.Delivered},
		{"bus_dropped_total", st.Dropped},
		{"bus_rebinds_total", st.Rebinds},
		{"bus_signals_total", st.Signals},
		{"bus_moves_total", st.Moves},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.v)
	}
	fmt.Fprintf(w, "# TYPE bus_snapshot_version gauge\nbus_snapshot_version %d\n", st.SnapshotVersion)
	if rec := a.FlightRecorder(); rec != nil {
		fmt.Fprintf(w, "# TYPE trace_recorder_spans gauge\ntrace_recorder_spans %d\n", rec.Len())
		fmt.Fprintf(w, "# TYPE trace_recorder_recorded_total counter\ntrace_recorder_recorded_total %d\n", rec.Recorded())
		fmt.Fprintf(w, "# TYPE trace_recorder_memory_bound_bytes gauge\ntrace_recorder_memory_bound_bytes %d\n", rec.MemoryBound())
	}
	telemetry.WritePrometheus(w, a.Telemetry(), bus.PromLabelRules()...)
}

func (a *App) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if a.prims.ReconfigActive() {
		http.Error(w, "reconfiguring", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (a *App) handleTraces(w http.ResponseWriter, _ *http.Request) {
	spans := a.FlightRecorder().Snapshot()
	if spans == nil {
		spans = []*trace.SpanRecord{}
	}
	writeJSON(w, spans)
}

func (a *App) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	if strings.HasPrefix(id, "tx-") {
		lines, err := a.TraceTx(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"id": id, "timeline": lines})
		return
	}
	// Quiesce annotations render message trace IDs as 0x-prefixed hex so
	// they can't be misread as the decimal form the JSON spans use; accept
	// both, plus bare hex as a convenience for IDs with letters in them.
	var n uint64
	var err error
	if rest, isHex := strings.CutPrefix(id, "0x"); isHex {
		n, err = strconv.ParseUint(rest, 16, 64)
	} else {
		n, err = strconv.ParseUint(id, 10, 64)
		if err != nil {
			n, err = strconv.ParseUint(id, 16, 64)
		}
	}
	if err != nil {
		http.Error(w, "bad trace id: "+id, http.StatusBadRequest)
		return
	}
	spans := a.FlightRecorder().ByTrace(n)
	if len(spans) == 0 {
		http.Error(w, fmt.Sprintf("no retained spans for trace %d", n), http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]any{"trace_id": n, "spans": spans})
}

func (a *App) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, a.ReplicaSets())
}

func (a *App) handleTopology(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, a.Topology())
}

func (a *App) handleInstances(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, a.bus.Instances())
}

func (a *App) handleAuditTrail(w http.ResponseWriter, _ *http.Request) {
	lines := a.Trace()
	if lines == nil {
		lines = []string{}
	}
	writeJSON(w, lines)
}

// statsSnapshot is the /stats document: coarse bus counters, the full
// telemetry registry snapshot (per-interface message counters, queue-depth
// gauges, capture/restore histograms), and the transaction IDs with
// retained span timelines.
type statsSnapshot struct {
	Bus          bus.Stats          `json:"bus"`
	Telemetry    telemetry.Snapshot `json:"telemetry"`
	Transactions []string           `json:"transactions,omitempty"`
}

func (a *App) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Sort the transaction list: map-backed telemetry fields already
	// marshal with sorted keys, and golden tests want the whole stats
	// document byte-stable across runs.
	txids := a.prims.Tracer().IDs()
	sort.Strings(txids)
	writeJSON(w, statsSnapshot{
		Bus:          a.bus.Stats(),
		Telemetry:    a.Telemetry().Snapshot(),
		Transactions: txids,
	})
}

func (a *App) handleWatch(w http.ResponseWriter, r *http.Request) {
	k := 0
	if v := r.URL.Query().Get("windows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "windows must be a non-negative window count", http.StatusBadRequest)
			return
		}
		k = n
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, a.WatchTable(k))
}

func (a *App) handleRecordStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, a.RecordStatus())
}

func (a *App) handleReplay(w http.ResponseWriter, r *http.Request) {
	inst := strings.TrimPrefix(r.URL.Path, "/replay/")
	if inst == "" {
		http.Error(w, "usage: /replay/{instance}", http.StatusBadRequest)
		return
	}
	rep, err := a.ReplayRecorded(inst, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, rep)
}

// handleTimeseries serves windowed rollups. Without ?metric= it lists the
// live series names; with one it returns the metric's retained windows,
// optionally capped by ?window= (a count of trailing windows).
func (a *App) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		writeJSON(w, map[string]any{
			"window_ns": int64(a.roller.Window()),
			"windows":   a.roller.Depth(),
			"rolled":    a.roller.Rolled(),
			"metrics":   a.roller.Names(),
		})
		return
	}
	k := 0
	for _, key := range []string{"window", "windows"} {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "window must be a non-negative window count", http.StatusBadRequest)
				return
			}
			k = n
		}
	}
	s, ok := a.roller.Query(metric, k)
	if !ok {
		http.Error(w, "no series for metric "+metric, http.StatusNotFound)
		return
	}
	writeJSON(w, s)
}

// handleInstanceHealth serves /health/{instance}: the structured verdict
// with its evidence windows. ?baseline=a,b overrides the default baseline
// (the instance's live replica-group peers).
func (a *App) handleInstanceHealth(w http.ResponseWriter, r *http.Request) {
	inst := strings.TrimPrefix(r.URL.Path, "/health/")
	if inst == "" {
		http.Error(w, "usage: /health/{instance}", http.StatusBadRequest)
		return
	}
	var baseline []string
	if b := r.URL.Query().Get("baseline"); b != "" {
		for _, p := range strings.Split(b, ",") {
			if p = strings.TrimSpace(p); p != "" {
				baseline = append(baseline, p)
			}
		}
	}
	if _, err := a.bus.Info(inst); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, a.Health(inst, baseline))
}

// maxEventWait caps the /events long-poll, keeping every request bounded
// well under the server's WriteTimeout.
const maxEventWait = 30 * time.Second

// handleEvents serves the structured event log from an exclusive cursor:
// /events?since=N returns records with seq > N. ?wait=seconds long-polls
// until a fresh record arrives or the wait elapses (empty list).
func (a *App) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be an event cursor", http.StatusBadRequest)
			return
		}
		since = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs < 0 {
			http.Error(w, "wait must be non-negative seconds", http.StatusBadRequest)
			return
		}
		wait = time.Duration(secs * float64(time.Second))
		if wait > maxEventWait {
			wait = maxEventWait
		}
	}
	recs := a.events.Since(since)
	if len(recs) == 0 && wait > 0 {
		recs = a.events.Wait(since, wait)
	}
	if recs == nil {
		recs = []evlog.Record{}
	}
	// Resume from what this response holds, never from the log's newest
	// sequence: an event appended after Since returned would otherwise be
	// skipped by the next request.
	cursor := min(since, a.events.Cursor())
	if n := len(recs); n > 0 {
		cursor = recs[n-1].Seq
	}
	writeJSON(w, map[string]any{
		"cursor": cursor,
		"events": recs,
	})
}

// TxReport is the JSON form of reconfig.TxResult on the operator surface:
// the forward step trace, whether the transaction committed, and the
// compensations replayed if it rolled back.
type TxReport struct {
	TxID       string           `json:"tx_id,omitempty"` // tracer transaction ID, usable with `reconfigctl trace <txid>`
	Steps      []string         `json:"steps"`
	Committed  bool             `json:"committed"`
	RolledBack bool             `json:"rolled_back"`
	Rollback   []TxRollbackStep `json:"rollback,omitempty"`
	Err        string           `json:"error,omitempty"`
}

// TxRollbackStep is one compensation of a rolled-back transaction.
type TxRollbackStep struct {
	Action string `json:"action"`
	Err    string `json:"error,omitempty"`
}

func txReport(res *reconfig.TxResult) *TxReport {
	if res == nil {
		return nil
	}
	r := &TxReport{TxID: res.TxID, Steps: res.Steps, Committed: res.Committed, RolledBack: res.RolledBack}
	for _, s := range res.Rollback {
		r.Rollback = append(r.Rollback, TxRollbackStep{Action: s.Action, Err: s.Err})
	}
	if res.Err != nil {
		r.Err = res.Err.Error()
	}
	return r
}

// Format renders the report for operator display.
func (r *TxReport) Format() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	if r.TxID != "" {
		fmt.Fprintf(&b, "transaction %s\n", r.TxID)
	}
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	switch {
	case r.Committed:
		fmt.Fprintf(&b, "committed\n")
	case r.RolledBack:
		fmt.Fprintf(&b, "rolled back:\n")
		for _, s := range r.Rollback {
			if s.Err != "" {
				fmt.Fprintf(&b, "  %s FAILED: %s\n", s.Action, s.Err)
			} else {
				fmt.Fprintf(&b, "  %s\n", s.Action)
			}
		}
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "error: %s\n", r.Err)
	}
	return b.String()
}

// WatchTable renders the operator's one-screen view of the windowed
// telemetry: per instance, the delivery rate, queued backlog, error rate,
// sustained p99 delivery latency and health verdict over the last k rolled
// windows (default 5). Served by /watch for `reconfigctl watch`.
func (a *App) WatchTable(k int) string {
	if k <= 0 {
		k = 5
	}
	snap := a.Telemetry().Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "window=%s rolled=%d\n", a.roller.Window(), a.roller.Rolled())
	fmt.Fprintf(&b, "%-24s %12s %8s %10s %12s  %s\n",
		"INSTANCE", "DELIVERED/S", "QDEPTH", "ERR/S", "P99", "HEALTH")
	for _, inst := range a.bus.Instances() {
		ws := health.InstanceWindows(a.roller, inst, k)
		var delivered, errs, latObs, p99, spanNs int64
		for _, w := range ws {
			delivered += w.Delivered
			errs += w.Errors
			latObs += w.LatObs
			if w.P99Ns > p99 {
				p99 = w.P99Ns
			}
			spanNs += w.EndNs - w.StartNs
		}
		secs := float64(spanNs) / 1e9
		rate := func(v int64) float64 {
			if secs <= 0 {
				return 0
			}
			return float64(v) / secs
		}
		p99s := "-"
		if latObs > 0 {
			p99s = time.Duration(p99).String()
		}
		fmt.Fprintf(&b, "%-24s %12.1f %8d %10.2f %12s  %s\n",
			inst, rate(delivered), queueDepth(snap, inst), rate(errs), p99s, a.Health(inst, nil).Level)
	}
	return strings.TrimRight(b.String(), "\n")
}

// queueDepth sums the live queue-depth gauges attributed to inst. Instance
// names may contain dots ("pool.1"), so the dotless interface segment is
// peeled off the right-hand side before comparing.
func queueDepth(snap telemetry.Snapshot, inst string) int64 {
	var total int64
	for name, v := range snap.Gauges {
		rest := strings.TrimPrefix(name, "bus.iface.")
		if rest == name || !strings.HasSuffix(rest, ".queue_depth") {
			continue
		}
		rest = strings.TrimSuffix(rest, ".queue_depth")
		if i := strings.LastIndexByte(rest, '.'); i > 0 && rest[:i] == inst {
			total += v
		}
	}
	return total
}

// FormatTrace renders a trace for operator display.
func FormatTrace(trace []string) string {
	if len(trace) == 0 {
		return "(no reconfigurations yet)"
	}
	return strings.Join(trace, "\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The usual cause is a client hanging up mid-response; the error
		// is invisible to the client either way, so log it.
		log.Printf("obs: encode response: %v", err)
	}
}
