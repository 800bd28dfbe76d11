package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fixtures"
	"repro/internal/reconfig"
)

func startApp(t *testing.T) (*reconf.App, string) {
	t.Helper()
	app, err := reconf.Load(reconf.Config{
		SpecText: fixtures.MonitorSpec,
		Sources: map[string]reconf.ModuleSource{
			"compute": {Files: map[string]string{"compute.go": fixtures.ComputeSource}},
		},
		Native: map[string]reconf.NativeModule{
			"sensor":  fixtures.Sensor(fixtures.SensorConfig{Interval: 1}),
			"display": fixtures.Display(4, 1000, 1, nil),
		},
		SleepUnit: 100 * time.Microsecond,
		Timeouts:  reconfig.Timeouts{StateMove: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.ServeControl(l)
	t.Cleanup(func() { srv.Close() })
	return app, srv.Addr().String()
}

func TestReconfigctlCommands(t *testing.T) {
	_, addr := startApp(t)
	time.Sleep(50 * time.Millisecond) // let the first request start

	ok := [][]string{
		{"-addr", addr, "topology"},
		{"-addr", addr, "instances"},
		{"-addr", addr, "stats"},
		{"-addr", addr, "trace"},
		{"-addr", addr, "-dry-run", "move", "compute", "compute2", "machineB"},
		{"-addr", addr, "move", "compute", "compute2", "machineB"},
		{"-addr", addr, "trace"},
		{"-addr", addr, "-dry-run", "update", "compute2", "compute3", "compute"},
		{"-addr", addr, "-dry-run", "replace", "compute2", "compute3"},
		{"-addr", addr, "replicate", "compute2", "computeB", "machineC"},
		{"-addr", addr, "remove", "computeB"},
		{"-addr", addr, "replicas"},
		{"-addr", addr, "record"},
		{"-addr", addr, "watch", "-windows", "2"},
		{"-addr", addr, "timeseries"},
		{"-addr", addr, "health", "display", "sensor"},
		{"-addr", addr, "events", "1"},
	}
	for _, args := range ok {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	bad := [][]string{
		{"-addr", addr},                                    // no command
		{"-addr", addr, "frobnicate"},                      // unknown
		{"-addr", addr, "move", "compute2"},                // missing args
		{"-addr", addr, "move", "g", "h", "m"},             // unknown instance
		{"-addr", addr, "remove"},                          // missing args
		{"-addr", addr, "update", "x"},                     // missing args
		{"-addr", addr, "replace", "x"},                    // missing args
		{"-addr", addr, "replicate", "x"},                  // missing args
		{"-addr", "127.0.0.1:1", "topology"},               // dead server
		{"-addr", addr, "-dry-run", "move", "g", "h", "m"}, // plan for unknown instance
		{"-addr", addr, "record", "on"},                    // no record ring configured
		{"-addr", addr, "record", "sideways"},              // bad mode
		{"-addr", addr, "events", "-1"},                    // bad cursor
		{"-addr", addr, "health", "ghost"},                 // unknown instance
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("no error for %v", args)
		}
	}
}

// TestSubcommandRoutes runs every reconfigctl subcommand against a
// control listener and checks that each one reached a route the server
// mounts: whatever the application answers, the mux itself must not
// refuse the path (404 page not found), the method (405) or the body
// type (415).
func TestSubcommandRoutes(t *testing.T) {
	_, addr := startApp(t)
	invocations := map[string][]string{
		"topology":   {"topology"},
		"instances":  {"instances"},
		"move":       {"move", "compute", "compute2", "machineB"},
		"replace":    {"replace", "compute2", "compute3"},
		"update":     {"update", "compute3", "compute4", "compute"},
		"replicate":  {"replicate", "compute4", "computeB", "machineC"},
		"remove":     {"remove", "computeB"},
		"trace":      {"trace", "tx-0001"},
		"stats":      {"stats"},
		"replicas":   {"replicas"},
		"record":     {"record", "off"},
		"replay":     {"replay", "compute4"},
		"watch":      {"watch"},
		"timeseries": {"timeseries", "no.such.metric", "1"},
		"health":     {"health", "display"},
		"events":     {"events"},
	}
	for _, name := range strings.Split(commands, "|") {
		args, ok := invocations[name]
		if !ok {
			t.Errorf("subcommand %s has no route check", name)
			continue
		}
		runs := [][]string{append([]string{"-addr", addr}, args...)}
		if name == "move" || name == "replace" || name == "update" {
			runs = append([][]string{append([]string{"-dry-run"}, runs[0]...)}, runs...)
		}
		for _, full := range runs {
			_, err := capture(t, func() error { return run(full) })
			if err == nil {
				continue
			}
			for _, refusal := range []string{"404 page not found", "(405)", "(415)"} {
				if strings.Contains(err.Error(), refusal) {
					t.Errorf("%v: the server mounts no matching route: %v", full, err)
				}
			}
		}
	}
}

// capture runs fn with os.Stdout redirected into a buffer.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestReconfigctlTraceTx drives one committed and one rolled-back
// replacement, then renders each transaction's span timeline with
// `trace <txid>` and checks it is correlated with the step trace the
// TxReport carried.
func TestReconfigctlTraceTx(t *testing.T) {
	_, addr := startApp(t)
	time.Sleep(50 * time.Millisecond)

	c := newClient(addr, time.Second)
	txPost := func(path string, body map[string]string) (*reconf.TxReport, error) {
		data, err := c.do(http.MethodPost, path, body)
		var rep reconf.TxReport
		if jerr := json.Unmarshal(data, &rep); jerr != nil {
			t.Fatalf("POST %s: report is not JSON (%v): %s", path, jerr, data)
		}
		return &rep, err
	}

	// Committed: a plain move.
	tx, err := txPost("/move", map[string]string{"instance": "compute", "new_name": "compute2", "machine": "machineB"})
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if tx.TxID == "" || !tx.Committed {
		t.Fatalf("move tx = %+v, want committed with TxID", tx)
	}

	// Rolled back: an update to a module that does not exist. The report
	// still arrives, with status 409.
	badTx, badErr := txPost("/update", map[string]string{"instance": "compute2", "new_name": "compute3", "module": "no-such-module"})
	if badErr == nil || !strings.Contains(badErr.Error(), "(409)") {
		t.Fatalf("update to missing module: err = %v, want a 409", badErr)
	}
	if badTx.TxID == "" || !badTx.RolledBack || badTx.Err == "" {
		t.Fatalf("failed update tx = %+v, want rolled back with TxID and error", badTx)
	}
	// The command prints the rollback report and exits with its error.
	out, err := capture(t, func() error {
		return run([]string{"-addr", addr, "update", "compute2", "compute3", "no-such-module"})
	})
	if err == nil || !strings.Contains(out, "rolled back:") {
		t.Errorf("failed update: err = %v, output:\n%s", err, out)
	}

	for _, tc := range []struct {
		tx      *reconf.TxReport
		outcome string
	}{
		{tx, "committed"},
		{badTx, "rolled-back"},
	} {
		out, err := capture(t, func() error {
			return run([]string{"-addr", addr, "trace", tc.tx.TxID})
		})
		if err != nil {
			t.Fatalf("trace %s: %v", tc.tx.TxID, err)
		}
		for _, want := range []string{tc.tx.TxID, tc.outcome, "steps:"} {
			if !strings.Contains(out, want) {
				t.Errorf("trace %s missing %q:\n%s", tc.tx.TxID, want, out)
			}
		}
		// The timeline's step section is the TxReport step trace.
		for _, step := range tc.tx.Steps {
			if !strings.Contains(out, step) {
				t.Errorf("trace %s missing step %q:\n%s", tc.tx.TxID, step, out)
			}
		}
	}
	if tl, _ := capture(t, func() error { return run([]string{"-addr", addr, "trace", tx.TxID}) }); !strings.Contains(tl, "quiesce_wait") {
		t.Errorf("committed timeline missing quiesce_wait span:\n%s", tl)
	}

	// Unknown transaction IDs are refused.
	if err := run([]string{"-addr", addr, "trace", "tx-9999"}); err == nil {
		t.Error("trace of unknown txid accepted")
	}
}
