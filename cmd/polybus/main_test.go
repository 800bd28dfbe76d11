package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
)

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func writeApp(t *testing.T) (specFile, srcDir string) {
	t.Helper()
	dir := t.TempDir()
	specFile = filepath.Join(dir, "app.mil")
	if err := os.WriteFile(specFile, []byte(fixtures.MonitorSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	srcDir = filepath.Join(dir, "modules")
	for name, src := range map[string]string{
		"compute": fixtures.ComputeSource,
		"sensor":  fixtures.SensorSource,
		"display": fixtures.DisplaySource,
	} {
		mdir := filepath.Join(srcDir, name)
		if err := os.MkdirAll(mdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mdir, name+".go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return specFile, srcDir
}

// TestPolybusServesAndIsControllable boots the whole application from the
// specification file and drives a migration through the control plane —
// the operator workflow of README.md.
func TestPolybusServesAndIsControllable(t *testing.T) {
	specFile, srcDir := writeApp(t)
	ctlAddr := freePort(t)
	busAddr := freePort(t)
	obsAddr := freePort(t)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-spec", specFile,
			"-srcdir", srcDir,
			"-control", ctlAddr,
			"-listen", busAddr,
			"-obs-addr", obsAddr,
			"-trace-sample", "1",
			"-duration", "4s",
			"-sleepunit", "1ms",
		})
	}()

	// Wait for the control plane.
	ctl := "http://" + ctlAddr
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ctl + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("control plane never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if topo := obsGet(t, ctl+"/topology"); !strings.Contains(topo, "instance compute (module compute)") {
		t.Fatalf("topology = %q", topo)
	}

	// Migrate compute while the application serves.
	time.Sleep(100 * time.Millisecond)
	resp, err := http.Post(ctl+"/move", "application/json",
		strings.NewReader(`{"instance": "compute", "new_name": "compute2", "machine": "machineB"}`))
	if err != nil {
		t.Fatalf("remote move: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"committed": true`) {
		t.Fatalf("remote move = %d %s", resp.StatusCode, body)
	}
	if topo := obsGet(t, ctl+"/topology"); !strings.Contains(topo, "instance compute2 (module compute) on machineB") {
		t.Fatalf("post-move topology = %q", topo)
	}
	if trace := obsGet(t, ctl+"/trace"); !strings.Contains(trace, "compute2") {
		t.Fatalf("trace = %s", trace)
	}
	if stats := obsGet(t, ctl+"/stats"); !strings.Contains(stats, `"rebinds": 1`) {
		t.Fatalf("stats = %s", stats)
	}
	// The -obs-addr listener reads but cannot reconfigure.
	resp, err = http.Post("http://"+obsAddr+"/move", "application/json",
		strings.NewReader(`{"instance": "compute2", "new_name": "compute3"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /move on the obs address = %d, want 404", resp.StatusCode)
	}

	// The observability endpoint serves Prometheus metrics and health.
	metrics := obsGet(t, "http://"+obsAddr+"/metrics")
	for _, want := range []string{"bus_delivered_total", "bus_rebinds_total 1", "reconfig_tx_total_ns_count"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := obsGet(t, "http://"+obsAddr+"/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q, want ok", got)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("polybus: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("polybus never exited")
	}
}

func obsGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPolybusValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-spec", "/nonexistent", "-srcdir", "/nonexistent"}); err == nil {
		t.Error("bad spec accepted")
	}
	specFile, _ := writeApp(t)
	if err := run([]string{"-spec", specFile, "-srcdir", "/nonexistent"}); err == nil {
		t.Error("bad srcdir accepted")
	}
}

func TestReadModuleDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := readModuleDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, %v", files, err)
	}
	if _, err := readModuleDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir accepted")
	}
}
