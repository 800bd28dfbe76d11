// Command reconfigctl drives dynamic reconfigurations against a running
// polybus application over its control plane: plain HTTP on the address
// given to polybus -control. Each command is one request (GET for reads,
// POST with a JSON body for reconfigurations), so curl can do the same.
//
//	reconfigctl -addr 127.0.0.1:7008 topology
//	reconfigctl -addr 127.0.0.1:7008 instances
//	reconfigctl -addr 127.0.0.1:7008 [-dry-run] move <inst> <newName> <machine>
//	reconfigctl -addr 127.0.0.1:7008 [-dry-run] replace <inst> <newName> [machine] [module]
//	reconfigctl -addr 127.0.0.1:7008 [-dry-run] update <inst> <newName> <module>
//	reconfigctl -addr 127.0.0.1:7008 replicate <inst> <newName> [machine]
//	reconfigctl -addr 127.0.0.1:7008 remove <inst>
//	reconfigctl -addr 127.0.0.1:7008 trace [txid]
//	reconfigctl -addr 127.0.0.1:7008 stats
//	reconfigctl -addr 127.0.0.1:7008 replicas
//	reconfigctl -addr 127.0.0.1:7008 record [on|off]
//	reconfigctl -addr 127.0.0.1:7008 replay <inst>
//	reconfigctl -addr 127.0.0.1:7008 watch [-interval 2s] [-count 1] [-windows 5]
//	reconfigctl -addr 127.0.0.1:7008 timeseries [metric] [windows]
//	reconfigctl -addr 127.0.0.1:7008 health <inst> [baseline,baseline...]
//	reconfigctl -addr 127.0.0.1:7008 events [cursor]
//
// The replacement-family commands (move, replace, update) run as a
// transaction on the application side: every primitive journals a
// compensating inverse, and a failure at any step rolls the system back
// to its pre-reconfiguration state. The transaction's step trace — and,
// on failure, the rollback report — is printed after the command. With
// -dry-run the planned step sequence is printed without executing it.
//
// `stats` prints a JSON snapshot: bus counters, the telemetry registry
// (per-interface message counts, queue depths, per-module flag-check and
// state-transfer timings), and the retained transaction IDs. `trace`
// prints the primitive audit trail; `trace <txid>` prints that
// transaction's span timeline (quiesce wait, state move, rebind, restore
// wait, commit or rollback) with its step trace.
//
// `replicas` prints the health of every supervised replica group as JSON:
// live members with their heartbeat counter and queued backlog, dead
// members awaiting rebuild, and the supervision counters (detections,
// recoveries, busy-retries, failures).
//
// `record` prints the record ring's status as JSON (capacity, retained
// records, per-queue delivery sequences, memory bound); `record on` and
// `record off` toggle recording at runtime. `replay <inst>` replays the
// recorded window against the instance's module in-process on the
// application side and prints the reproduction report — whether the
// replayed output sequence matches the recorded one byte-for-byte.
//
// `watch` renders a per-instance table of the windowed telemetry —
// delivery rate, queued backlog, error rate, sustained p99 delivery
// latency and health verdict — aggregated over the last -windows rolled
// windows; with -count 0 it refreshes every -interval until interrupted.
// `timeseries` lists the rolled metric names, or prints one metric's
// retained windows as JSON. `health <inst>` prints the instance's
// structured verdict with its evidence windows (the optional second
// argument overrides the baseline peers, comma-separated). `events`
// prints the structured event log after the given cursor.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
)

// commands lists every subcommand, for the usage error.
const commands = "topology|instances|move|replace|update|replicate|remove|trace|stats|replicas|record|replay|watch|timeseries|health|events"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reconfigctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reconfigctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7008", "control plane address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial timeout")
	dryRun := fs.Bool("dry-run", false, "print the replacement plan without executing it (move/replace/update)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no command (%s)", commands)
	}
	c := newClient(*addr, *timeout)

	arg := func(i int) string {
		if i < len(rest) {
			return rest[i]
		}
		return ""
	}
	need := func(n int) error {
		if len(rest) < n+1 {
			return fmt.Errorf("%s: missing arguments", rest[0])
		}
		return nil
	}
	// show prints a text or JSON response body as the server sent it.
	show := func(path string) error {
		data, err := c.do(http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		fmt.Println(strings.TrimRight(string(data), "\n"))
		return nil
	}
	// tx runs a replacement-family command, or with -dry-run prints its
	// plan. The transaction report is printed whether it committed or
	// rolled back; done is printed after a commit, and a failed
	// transaction surfaces as the error.
	tx := func(path string, body map[string]string, done ...any) error {
		if *dryRun {
			var steps []string
			if err := c.doJSON(http.MethodPost, "/plan", body, &steps); err != nil {
				return err
			}
			fmt.Println("plan (dry run, nothing executed):")
			for _, s := range steps {
				fmt.Println(" ", s)
			}
			return nil
		}
		data, err := c.do(http.MethodPost, path, body)
		var rep reconf.TxReport
		if jerr := json.Unmarshal(data, &rep); jerr != nil {
			if err == nil {
				err = jerr
			}
			return err
		}
		fmt.Print(rep.Format())
		if err != nil {
			if rep.Err != "" {
				return errors.New(rep.Err)
			}
			return err
		}
		fmt.Println(done...)
		return nil
	}

	switch rest[0] {
	case "topology":
		return show("/topology")
	case "instances":
		var insts []string
		if err := c.doJSON(http.MethodGet, "/instances", nil, &insts); err != nil {
			return err
		}
		fmt.Println(strings.Join(insts, "\n"))
	case "move":
		if err := need(3); err != nil {
			return err
		}
		return tx("/move", map[string]string{"instance": arg(1), "new_name": arg(2), "machine": arg(3)},
			"moved", arg(1), "->", arg(2), "on", arg(3))
	case "replace":
		if err := need(2); err != nil {
			return err
		}
		return tx("/replace", map[string]string{"instance": arg(1), "new_name": arg(2), "machine": arg(3), "module": arg(4)},
			"replaced", arg(1), "->", arg(2))
	case "update":
		if err := need(3); err != nil {
			return err
		}
		return tx("/update", map[string]string{"instance": arg(1), "new_name": arg(2), "module": arg(3)},
			"updated", arg(1), "->", arg(2), "running module", arg(3))
	case "replicate":
		if err := need(2); err != nil {
			return err
		}
		if _, err := c.do(http.MethodPost, "/replicate", map[string]string{"instance": arg(1), "new_name": arg(2), "machine": arg(3)}); err != nil {
			return err
		}
		fmt.Println("replicated", arg(1), "->", arg(2))
	case "remove":
		if err := need(1); err != nil {
			return err
		}
		if _, err := c.do(http.MethodPost, "/remove", map[string]string{"instance": arg(1)}); err != nil {
			return err
		}
		fmt.Println("removed", arg(1))
	case "trace":
		if txid := arg(1); txid != "" {
			var doc struct {
				Timeline []string `json:"timeline"`
			}
			if err := c.doJSON(http.MethodGet, "/trace/"+url.PathEscape(txid), nil, &doc); err != nil {
				return err
			}
			fmt.Println(strings.Join(doc.Timeline, "\n"))
			return nil
		}
		var trace []string
		if err := c.doJSON(http.MethodGet, "/trace", nil, &trace); err != nil {
			return err
		}
		fmt.Println(reconf.FormatTrace(trace))
	case "stats":
		return show("/stats")
	case "replicas":
		return show("/replicas")
	case "record":
		var enabled bool
		switch arg(1) {
		case "":
			return show("/record")
		case "on":
			enabled = true
		case "off":
		default:
			return fmt.Errorf("record: want on, off or no argument, got %q", arg(1))
		}
		data, err := c.do(http.MethodPost, "/record", map[string]bool{"enabled": enabled})
		if err != nil {
			return err
		}
		fmt.Println(strings.TrimRight(string(data), "\n"))
	case "replay":
		if err := need(1); err != nil {
			return err
		}
		return show("/replay/" + url.PathEscape(arg(1)))
	case "watch":
		wfs := flag.NewFlagSet("watch", flag.ContinueOnError)
		interval := wfs.Duration("interval", 2*time.Second, "refresh interval between iterations")
		count := wfs.Int("count", 1, "iterations to print; <=0 repeats until interrupted")
		windows := wfs.Int("windows", 0, "rolled windows to aggregate per row (0 = server default)")
		if err := wfs.Parse(rest[1:]); err != nil {
			return err
		}
		path := "/watch"
		if *windows > 0 {
			path += "?windows=" + strconv.Itoa(*windows)
		}
		for i := 0; *count <= 0 || i < *count; i++ {
			if i > 0 {
				time.Sleep(*interval)
				fmt.Println()
			}
			if err := show(path); err != nil {
				return err
			}
		}
	case "timeseries":
		q := url.Values{}
		if m := arg(1); m != "" {
			q.Set("metric", m)
		}
		if v := arg(2); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("timeseries: windows must be an integer, got %q", v)
			}
			if n > 0 {
				q.Set("window", strconv.Itoa(n))
			}
		}
		return show("/timeseries?" + q.Encode())
	case "health":
		if err := need(1); err != nil {
			return err
		}
		path := "/health/" + url.PathEscape(arg(1))
		if b := arg(2); b != "" {
			path += "?" + url.Values{"baseline": {b}}.Encode()
		}
		return show(path)
	case "events":
		path := "/events"
		if v := arg(1); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("events: cursor must be a non-negative integer, got %q", v)
			}
			path += "?since=" + strconv.FormatUint(n, 10)
		}
		return show(path)
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
	return nil
}

// client is a thin HTTP client of the control plane.
type client struct {
	base string
	hc   *http.Client
}

// newClient bounds only the dial: a Replace can legitimately run for as
// long as the application's reconfiguration timeouts allow.
func newClient(addr string, dialTimeout time.Duration) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{Timeout: dialTimeout}).DialContext,
		}},
	}
}

// do sends one request, with body JSON-encoded when non-nil, and returns
// the response body. A non-2xx status is an error carrying the server's
// message; the body is still returned.
func (c *client) do(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("%s %s: %s (%d)", method, path, strings.TrimSpace(string(data)), resp.StatusCode)
	}
	return data, nil
}

// doJSON is do with the response decoded into out.
func (c *client) doJSON(method, path string, body, out any) error {
	data, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}
