package reconf

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry/evlog"
)

// serveControl starts an App's read-write operator listener on an
// ephemeral port and returns its base URL.
func serveControl(t *testing.T, app *App) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.ServeControl(l)
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr().String()
}

// httpPost posts body with the given content type and returns the status
// and response body.
func httpPost(t *testing.T, url, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// postJSON posts a JSON body.
func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	return httpPost(t, url, "application/json", body)
}

// postJSONHost posts a JSON body under the given Host header and returns
// the status.
func postJSONHost(t *testing.T, url, host, body string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Host = host
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s (Host %s): %v", url, host, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// postTx posts a replacement-family request and decodes its report.
func postTx(t *testing.T, url, body string) (int, *TxReport) {
	t.Helper()
	code, data := postJSON(t, url, body)
	var rep TxReport
	if err := json.Unmarshal([]byte(data), &rep); err != nil {
		t.Fatalf("POST %s -> %d, report is not JSON: %v\n%s", url, code, err, data)
	}
	return code, &rep
}

func TestControlProtocol(t *testing.T) {
	app := loadMonitor(t, 0)
	d := newDriver(t, app)
	if err := app.Launch("compute"); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	base := serveControl(t, app)

	if code, topo := httpGet(t, base+"/topology"); code != http.StatusOK || !strings.Contains(topo, "instance compute (module compute)") {
		t.Errorf("topology = %d %q", code, topo)
	}
	var insts []string
	code, body := httpGet(t, base+"/instances")
	if err := json.Unmarshal([]byte(body), &insts); code != http.StatusOK || err != nil || len(insts) != 3 {
		t.Errorf("instances = %d %s (%v)", code, body, err)
	}

	// Remote move while the module is mid-recursion.
	d.request(2)
	time.Sleep(50 * time.Millisecond)
	go func() {
		time.Sleep(30 * time.Millisecond)
		d.temperature(10)
	}()
	code, tx := postTx(t, base+"/move", `{"instance": "compute", "new_name": "compute2", "machine": "machineB"}`)
	if code != http.StatusOK {
		t.Fatalf("remote move -> %d: %+v", code, tx)
	}
	if !tx.Committed || tx.RolledBack || len(tx.Rollback) != 0 {
		t.Errorf("remote move tx report = %+v, want committed with empty rollback", tx)
	}
	if !strings.Contains(tx.Format(), "committed") {
		t.Errorf("tx.Format() = %q, want committed line", tx.Format())
	}
	if tx.TxID == "" {
		t.Fatalf("remote move tx report carries no TxID: %+v", tx)
	}
	if !strings.Contains(tx.Format(), "transaction "+tx.TxID) {
		t.Errorf("tx.Format() missing transaction header:\n%s", tx.Format())
	}

	// The transaction ID resolves to a span timeline over the control plane.
	code, body = httpGet(t, base+"/trace/"+tx.TxID)
	var timeline struct {
		Timeline []string `json:"timeline"`
	}
	if err := json.Unmarshal([]byte(body), &timeline); code != http.StatusOK || err != nil {
		t.Fatalf("remote trace %s -> %d %s (%v)", tx.TxID, code, body, err)
	}
	joined := strings.Join(timeline.Timeline, "\n")
	for _, want := range []string{tx.TxID, "committed", "quiesce_wait", "state_move", "rebind", "restore_wait", "steps:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("timeline missing %q:\n%s", want, joined)
		}
	}
	if code, _ := httpGet(t, base+"/trace/tx-9999"); code != http.StatusNotFound {
		t.Errorf("trace of unknown txid -> %d, want 404", code)
	}
	d.temperature(30)
	if got := d.response(); got != 20 {
		t.Errorf("moved computation = %g", got)
	}

	var trace []string
	code, body = httpGet(t, base+"/trace")
	if err := json.Unmarshal([]byte(body), &trace); code != http.StatusOK || err != nil || len(trace) == 0 {
		t.Errorf("trace = %d %s (%v)", code, body, err)
	}
	if FormatTrace(trace) == "(no reconfigurations yet)" {
		t.Error("trace formatting")
	}
	if FormatTrace(nil) != "(no reconfigurations yet)" {
		t.Error("empty trace formatting")
	}
	// Stats is a JSON document with bus counters, telemetry, and txids.
	code, stats := httpGet(t, base+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats -> %d", code)
	}
	var snap struct {
		Bus struct {
			Delivered int64 `json:"delivered"`
		} `json:"bus"`
		Telemetry struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"telemetry"`
		Transactions []string `json:"transactions"`
	}
	if err := json.Unmarshal([]byte(stats), &snap); err != nil {
		t.Fatalf("stats is not JSON: %v\n%s", err, stats)
	}
	if snap.Bus.Delivered == 0 {
		t.Errorf("stats bus.delivered = 0:\n%s", stats)
	}
	if len(snap.Telemetry.Counters) == 0 {
		t.Errorf("stats telemetry has no counters:\n%s", stats)
	}
	found := false
	for _, id := range snap.Transactions {
		if id == tx.TxID {
			found = true
		}
	}
	if !found {
		t.Errorf("stats transactions %v missing %s", snap.Transactions, tx.TxID)
	}

	// A dry-run plan lists the transactional step sequence.
	var steps []string
	code, body = postJSON(t, base+"/plan", `{"instance": "compute2", "new_name": "compute3", "machine": "machineA"}`)
	if err := json.Unmarshal([]byte(body), &steps); code != http.StatusOK || err != nil {
		t.Fatalf("remote plan -> %d %s (%v)", code, body, err)
	}
	joined = strings.Join(steps, "\n")
	for _, want := range []string{"obj_cap", "signal_reconfig", "await_restored", "commit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plan missing %q:\n%s", want, joined)
		}
	}
	// Planning must not have executed anything.
	_, body = httpGet(t, base+"/instances")
	if err := json.Unmarshal([]byte(body), &insts); err != nil || len(insts) != 3 {
		t.Errorf("plan executed something: instances = %s", body)
	}

	// A transaction that fails (the new name is taken) rolls back and
	// still reports, with a 409.
	code, bad := postTx(t, base+"/move", `{"instance": "compute2", "new_name": "display", "machine": "machineC"}`)
	if code != http.StatusConflict || bad.Committed || !bad.RolledBack || bad.Err == "" {
		t.Errorf("failed move -> %d %+v, want 409 with a rolled-back report", code, bad)
	}
	if !strings.Contains(bad.Format(), "rolled back:") {
		t.Errorf("rolled-back report renders without its rollback:\n%s", bad.Format())
	}
	if code, body := httpGet(t, base+"/topology"); code != http.StatusOK || !strings.Contains(body, "instance compute2 (module compute)") {
		t.Errorf("topology after the failed move = %s, want compute2 still serving", body)
	}

	// Error paths.
	if code, _ := postJSON(t, base+"/move", `{"instance": "ghost", "new_name": "g2", "machine": "m"}`); code != http.StatusConflict {
		t.Errorf("remote move of ghost -> %d, want 409", code)
	}
	if code, _ := postJSON(t, base+"/plan", `{"instance": "ghost", "new_name": "g2", "machine": "m"}`); code != http.StatusConflict {
		t.Errorf("remote plan of ghost -> %d, want 409", code)
	}
	if code, _ := postJSON(t, base+"/remove", `{"instance": "ghost"}`); code != http.StatusConflict {
		t.Errorf("remote remove of ghost -> %d, want 409", code)
	}
	if code, body := postJSON(t, base+"/replicate", `{"instance": "compute2", "new_name": "computeB", "machine": "machineC"}`); code != http.StatusOK {
		t.Errorf("remote replicate -> %d %s", code, body)
	}
	if code, body := postJSON(t, base+"/remove", `{"instance": "computeB"}`); code != http.StatusOK {
		t.Errorf("remote remove -> %d %s", code, body)
	}
	if code, _ := postJSON(t, base+"/frobnicate", `{}`); code != http.StatusNotFound {
		t.Errorf("unknown op -> %d, want 404", code)
	}
}

// TestOperatorRoutes walks the route table against both listeners: every
// GET route is mounted on both, every POST route only on ServeControl,
// where it refuses GET (405), non-JSON bodies (415), unknown fields (400)
// and oversized bodies (413) before the application sees the request.
func TestOperatorRoutes(t *testing.T) {
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	obs, ctl := serveObs(t, app), serveControl(t, app)
	before := app.Topology()

	posts := 0
	for _, r := range app.routes() {
		switch r.method {
		case http.MethodGet:
			for _, base := range []string{obs, ctl} {
				code, body := httpGet(t, base+r.path)
				if code == http.StatusNotFound && strings.Contains(body, "404 page not found") || code == http.StatusMethodNotAllowed {
					t.Errorf("GET %s%s -> %d: route not mounted", base, r.path, code)
				}
			}
		case http.MethodPost:
			posts++
			// The read-only listener has no such route; /record answers 405
			// there because its GET form is mounted.
			want := http.StatusNotFound
			if r.path == "/record" {
				want = http.StatusMethodNotAllowed
			}
			if code, _ := postJSON(t, obs+r.path, `{"instance": "compute", "new_name": "c2", "enabled": false}`); code != want {
				t.Errorf("POST %s on ServeObs -> %d, want %d", r.path, code, want)
			}
			if r.path != "/record" {
				if code, _ := httpGet(t, ctl+r.path); code != http.StatusMethodNotAllowed {
					t.Errorf("GET %s on ServeControl -> %d, want 405", r.path, code)
				}
			}
			if code, _ := httpPost(t, ctl+r.path, "application/x-www-form-urlencoded", "instance=compute&new_name=c2"); code != http.StatusUnsupportedMediaType {
				t.Errorf("form POST %s -> %d, want 415", r.path, code)
			}
			if code, _ := postJSON(t, ctl+r.path, `{"instance": "compute", "frob": 1}`); code != http.StatusBadRequest {
				t.Errorf("POST %s with an unknown field -> %d, want 400", r.path, code)
			}
			// A DNS-rebound page reaches the listener under its own hostname.
			if code := postJSONHost(t, ctl+r.path, "rebind.example:80", `{"instance": "compute"}`); code != http.StatusForbidden {
				t.Errorf("POST %s with a foreign Host -> %d, want 403", r.path, code)
			}
			huge := `{"instance": "` + strings.Repeat("x", maxBodyBytes) + `"}`
			if code, _ := postJSON(t, ctl+r.path, huge); code != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s with an oversized body -> %d, want 413", r.path, code)
			}
		default:
			t.Errorf("route %s %s: unexpected method", r.method, r.path)
		}
	}
	// localhost is an accepted name for the listener; /plan runs nothing.
	port := strings.TrimPrefix(ctl, "http://127.0.0.1")
	if code := postJSONHost(t, ctl+"/plan", "localhost"+port, `{"instance": "compute", "new_name": "c2", "machine": "machineA"}`); code != http.StatusOK {
		t.Errorf("POST /plan with Host localhost%s -> %d, want 200", port, code)
	}
	if posts != 7 {
		t.Errorf("route table has %d POST routes, want 7 (move replace update plan replicate remove record)", posts)
	}
	if after := app.Topology(); after != before {
		t.Errorf("refused requests changed the topology:\nbefore %s\nafter  %s", before, after)
	}
}

func TestAddressedHost(t *testing.T) {
	for host, want := range map[string]bool{
		"127.0.0.1:7971":     true,
		"127.0.0.1":          true,
		"[::1]:7971":         true,
		"[::1]":              true,
		"10.0.0.5:80":        true,
		"localhost:7971":     true,
		"LocalHost":          true,
		"":                   false,
		"rebind.example":     false,
		"rebind.example:80":  false,
		"localhost.example":  false,
		"127.0.0.1.nip.test": false,
	} {
		if got := addressedHost(host); got != want {
			t.Errorf("addressedHost(%q) = %v, want %v", host, got, want)
		}
	}
}

// TestControlObservabilityOps covers the operator views that only the
// control protocol used to serve: /watch renders the per-instance table
// (?windows=k validated), and /events pages by a cursor that is the last
// sequence returned. TestObsTimeseriesHealthEvents covers the rest of the
// telemetry routes, which both listeners share.
func TestControlObservabilityOps(t *testing.T) {
	app, d, _ := startInterrupted(t)
	d.temperature(60)
	finishComputation(t, d)

	// Roll two windows by hand rather than waiting out the wall clock.
	app.Timeseries().Roll()
	app.Timeseries().Roll()
	base := serveControl(t, app)

	code, tbl := httpGet(t, base+"/watch")
	if code != http.StatusOK {
		t.Fatalf("watch -> %d %s", code, tbl)
	}
	for _, want := range []string{"INSTANCE", "DELIVERED/S", "QDEPTH", "HEALTH", "display", "healthy"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("watch table missing %q:\n%s", want, tbl)
		}
	}
	if code, _ := httpGet(t, base+"/watch?windows=2"); code != http.StatusOK {
		t.Errorf("watch?windows=2 -> %d", code)
	}
	if code, _ := httpGet(t, base+"/watch?windows=-1"); code != http.StatusBadRequest {
		t.Errorf("watch?windows=-1 -> %d, want 400", code)
	}

	type page struct {
		Cursor uint64 `json:"cursor"`
		Events []struct {
			Seq uint64 `json:"seq"`
		} `json:"events"`
	}
	get := func(since uint64) page {
		t.Helper()
		code, body := httpGet(t, fmt.Sprintf("%s/events?since=%d", base, since))
		var p page
		if err := json.Unmarshal([]byte(body), &p); code != http.StatusOK || err != nil {
			t.Fatalf("events?since=%d -> %d %s (%v)", since, code, body, err)
		}
		return p
	}
	all := get(0)
	if n := len(all.Events); n == 0 || all.Cursor != all.Events[n-1].Seq {
		t.Fatalf("events cursor %d is not the last returned seq (%d events)", all.Cursor, len(all.Events))
	}
	if tail := get(all.Cursor); len(tail.Events) != 0 || tail.Cursor != all.Cursor {
		t.Errorf("events since cursor = %d records, cursor %d; want 0 and %d", len(tail.Events), tail.Cursor, all.Cursor)
	}
	// A cursor past the log's end resumes from the end, not beyond it.
	if ahead := get(1 << 40); ahead.Cursor != app.Events().Cursor() {
		t.Errorf("events?since=2^40 cursor = %d, want the log's own cursor %d", ahead.Cursor, app.Events().Cursor())
	}
}

// TestEventsResumeLosesNothing pages /events the way an operator tool
// does, resuming from each response's cursor, while two appenders race
// it. The log holds every event, so the client must see all of them
// exactly once and in order; a cursor taken from the log's newest
// sequence instead of the response would skip events appended between
// the read and the cursor.
func TestEventsResumeLosesNothing(t *testing.T) {
	const appenders, per = 2, 20000
	a := &App{events: evlog.NewLog(1 << 17)}
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.events.Append(evlog.Record{Source: "test", Kind: "e"})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var cursor, missed uint64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // every append is published: drain the rest
		default:
		}
		rec := httptest.NewRecorder()
		a.handleEvents(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/events?since=%d", cursor), nil))
		var doc struct {
			Cursor uint64 `json:"cursor"`
			Events []struct {
				Seq uint64 `json:"seq"`
			} `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/events?since=%d: %v\n%s", cursor, err, rec.Body)
		}
		last := cursor
		for _, e := range doc.Events {
			if e.Seq <= last {
				t.Fatalf("resumed after %d, got seq %d again", cursor, e.Seq)
			}
			missed += e.Seq - last - 1
			last = e.Seq
		}
		if doc.Cursor > last {
			missed += doc.Cursor - last // the next page starts past these
		}
		cursor = doc.Cursor
	}
	if missed != 0 || cursor != appenders*per {
		t.Fatalf("client missed %d of %d events (final cursor %d)", missed, appenders*per, cursor)
	}
}

// TestDialControlFailure: a control plane that is gone, or was never
// there, refuses the connection instead of accepting a reconfiguration.
func TestDialControlFailure(t *testing.T) {
	app := loadMonitor(t, 0)
	t.Cleanup(app.Stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.ServeControl(l)
	base := "http://" + srv.Addr().String()
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before close -> %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{base + "/move", "http://127.0.0.1:1/move"} {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"instance": "compute", "new_name": "c2"}`))
		if err == nil {
			resp.Body.Close()
			t.Errorf("POST %s succeeded with %d, want a connection error", url, resp.StatusCode)
		}
	}
}

func TestControlServerCloseIdempotent(t *testing.T) {
	app := loadMonitor(t, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := app.ServeControl(l)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
