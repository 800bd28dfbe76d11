package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/mh"
	"repro/internal/state"
)

// The application every workload drives: gen -> filter -> pool (2 replicas,
// round robin) -> sink. gen and sink are driver ports owned by the
// benchmark; filter is an interpreted source module with reconfiguration
// point R; pool members are native workers written below.
const spec = `
module gen {
  source = "./gen" ::
  define interface out pattern = {integer} ::
}

module filter {
  source = "./filter" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module filterV2 {
  source = "./filterV2" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
  reconfiguration point = {R} ::
}

module worker {
  source = "./worker" ::
  use interface in pattern = {integer} ::
  define interface out pattern = {integer} ::
}

module sink {
  source = "./sink" ::
  use interface in pattern = {integer} ::
}

module bench {
  instance gen
  instance filter
  instance worker as pool replicas 2 policy roundrobin
  instance sink
  bind "gen out" "filter in"
  bind "filter out" "pool in"
  bind "pool out" "sink in"
}
`

// filterSrc maps x to 3x+1 and counts the messages it has handled; the
// counter is the state a Replace must carry across. filterV2Src computes
// the same function a different way.
const filterSrc = `package filter

func main() {
	var x int
	var n int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		n = n + 1
		mh.Write("out", x*3+1)
	}
}
`

const filterV2Src = `package filterV2

func main() {
	var x int
	var n int
	mh.Init()
	for {
		mh.ReconfigPoint("R")
		mh.Read("in", &x)
		n++
		mh.Write("out", x+x+x+1)
	}
}
`

// port is the part of a bus port the drivers use; local attachments and
// remote TCP ports both provide it.
type port interface {
	Write(iface string, data []byte) error
	Read(iface string) (bus.Message, error)
}

// harness is one loaded application with its driver ports attached.
type harness struct {
	wl     workload
	app    *reconf.App
	faults *faultinject.Set
	codec  codec.Codec
	gen    port
	sink   port

	// remote attachments (remote workload only)
	srv     *bus.Server
	remotes []*bus.RemotePort
	wire    *countingListener

	// tracing is set while the traced half of a traced run is measured;
	// workers then time their mh calls and keep spans of sampled ids.
	tracing atomic.Bool
	spansMu sync.Mutex
	spans   []span // worker spans, handed over when a worker exits
}

// setupTimes splits one set-up into its layers (ns).
type setupTimes struct {
	load, start, first int64
}

func (s setupTimes) total() int64 { return s.load + s.start + s.first }

// newHarness loads the application, starts it and waits for one probe
// message to cross it end to end.
func newHarness(wl workload) (*harness, setupTimes, error) {
	h := &harness{wl: wl, faults: faultinject.New(), codec: codec.Default()}
	var st setupTimes
	cfg := reconf.Config{
		SpecText: spec,
		Sources: map[string]reconf.ModuleSource{
			"filter":   {Files: map[string]string{"filter.go": filterSrc}},
			"filterV2": {Files: map[string]string{"filter.go": filterV2Src}},
		},
		Native: map[string]reconf.NativeModule{
			"worker": h.worker,
			"gen":    func(rt *mh.Runtime) {}, // driver port, never launched
			"sink":   func(rt *mh.Runtime) {}, // driver port, never launched
		},
	}
	if wl.gated {
		cfg.RecordBuffer = 4096
		cfg.PreflightReplay = true
	}
	t0 := now()
	app, err := reconf.Load(cfg)
	if err != nil {
		return nil, st, fmt.Errorf("load: %w", err)
	}
	h.app = app
	t1 := now()
	st.load = t1 - t0
	if err := h.start(); err != nil {
		h.close()
		return nil, st, fmt.Errorf("start: %w", err)
	}
	t2 := now()
	st.start = t2 - t1
	if err := h.probe(); err != nil {
		h.close()
		return nil, st, fmt.Errorf("first delivery: %w", err)
	}
	st.first = now() - t2
	return h, st, nil
}

// start launches every module instance (App.Start minus the two driver
// ports, which the benchmark attaches instead), arms the replica
// supervisor and the telemetry roller, and attaches gen and sink, over
// loopback TCP for the remote workload.
func (h *harness) start() error {
	for _, inst := range []string{"filter", "pool.1", "pool.2"} {
		if err := h.app.Launch(inst); err != nil {
			return err
		}
	}
	h.app.Supervisor("pool").Start()
	h.app.Timeseries().Start()
	if !h.wl.remote {
		gen, err := h.app.AttachDriver("gen")
		if err != nil {
			return err
		}
		sink, err := h.app.AttachDriver("sink")
		if err != nil {
			return err
		}
		h.gen, h.sink = gen, sink
		return nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.wire = &countingListener{Listener: l}
	h.srv = bus.NewServer(h.app.Bus(), h.wire)
	for _, name := range []string{"gen", "sink"} {
		p, err := bus.DialPort(h.srv.Addr().String(), name)
		if err != nil {
			return err
		}
		h.remotes = append(h.remotes, p)
	}
	h.gen, h.sink = h.remotes[0], h.remotes[1]
	return nil
}

// probe sends id -1 and reads it back: the set-up is done when the first
// message has crossed every stage.
func (h *harness) probe() error {
	data, err := h.codec.EncodeValue(state.IntValue(-1))
	if err != nil {
		return err
	}
	if err := h.gen.Write("out", data); err != nil {
		return err
	}
	m, err := h.sink.Read("in")
	if err != nil {
		return err
	}
	v, err := h.codec.DecodeValue(m.Data)
	if err != nil {
		return err
	}
	if v.Int != -2 {
		return fmt.Errorf("probe: got %d, want -2", v.Int)
	}
	return nil
}

// close stops the application and every attachment; it returns once every
// module instance has wound down.
func (h *harness) close() {
	for _, p := range h.remotes {
		_ = p.Close() // teardown: the run's outputs are already collected
	}
	if h.srv != nil {
		_ = h.srv.Close()
	}
	if h.app != nil {
		h.app.Stop()
	}
}

// worker is the pool member: a pass-through stage that blocks in rt.Read,
// keeps a checkpointable processed counter, and dies when the benchmark
// arms its crash point. The crash site sits before Read, so a crash never
// loses a message the worker already consumed.
func (h *harness) worker(rt *mh.Runtime) {
	rt.Init()
	var processed, loc int
	if rt.Status() == bus.StatusClone {
		rt.Decode()
		rt.Restore("main", "", &loc, &processed)
		rt.FinishRestore()
	}
	rt.RegisterSnapshot(func() (*state.State, error) {
		st := state.New(rt.Name())
		st.PushFrame(state.Frame{Func: "main", Location: 1,
			Vars: []state.Var{{Name: "processed", Value: state.IntValue(int64(processed))}}})
		return st, nil
	})
	var spans []span
	defer func() {
		h.spansMu.Lock()
		h.spans = append(h.spans, spans...)
		h.spansMu.Unlock()
	}()
	site := "replica.crash." + rt.Name()
	var x int64
	for {
		if h.faults.Fire(site) != nil {
			return
		}
		if !h.tracing.Load() {
			rt.Read("in", &x)
			if rt.Err() != nil {
				return
			}
			processed++
			rt.Write("out", x)
			continue
		}
		t0 := now()
		rt.Read("in", &x)
		t1 := now()
		if rt.Err() != nil {
			return
		}
		processed++
		rt.Write("out", x)
		t2 := now()
		if id := (x - 1) / 3; sampled(id) {
			spans = append(spans,
				span{name: spanMhRead, id: id, start: t0, end: t1},
				span{name: spanMhWrite, id: id, start: t1, end: t2})
		}
	}
}

// countingListener counts the bytes every accepted connection moves in
// both directions.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

var base = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(base)) }
