// Command polybus runs a distributed application from a configuration
// specification: the software bus, every module instance (interpreted from
// module-language sources, automatically prepared for reconfiguration when
// their specification declares points), a TCP listener for remote module
// attachments, and the HTTP operator surface: -control serves every route,
// reads and POST reconfigurations (drive it with reconfigctl or curl);
// -obs-addr serves only the read routes, so it can be exposed for
// scraping without exposing reconfiguration.
//
//	polybus -spec app.mil -srcdir ./modules [-app name] \
//	        [-listen 127.0.0.1:7007] [-control 127.0.0.1:7008] \
//	        [-obs-addr 127.0.0.1:7009] [-pprof] [-trace-sample 100] \
//	        [-record 4096] [-record-spill run.rec] [-preflight] \
//	        [-duration 30s] [-sleepunit 10ms]
//
// Module sources are read from <srcdir>/<module>/*.go. Modules without a
// source directory must be attached remotely (their instances wait for a
// TCP attachment).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/bus"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "polybus:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("polybus", flag.ContinueOnError)
	var (
		specFile   = fs.String("spec", "", "configuration specification (required)")
		srcDir     = fs.String("srcdir", "", "directory of per-module source directories (required)")
		appName    = fs.String("app", "", "application name (default: the sole one)")
		listenAddr = fs.String("listen", "", "TCP address for remote module attachments")
		ctlAddr    = fs.String("control", "", "HTTP address for the reconfiguration control plane (every operator route)")
		obsAddr    = fs.String("obs-addr", "", "HTTP address for the read-only operator routes (/metrics, /healthz, /traces, /timeseries, /health/{inst}, /events, ...)")
		obsPprof   = fs.Bool("pprof", false, "also mount /debug/pprof on the observability address (requires -obs-addr)")
		traceSmpl  = fs.Int("trace-sample", 0, "sample 1-in-N message traces into the flight recorder (0 = off)")
		traceBuf   = fs.Int("trace-buffer", 0, "flight recorder capacity in spans (0 = default)")
		recordBuf  = fs.Int("record", 0, "record every delivered message into a ring of this capacity (0 = off)")
		recordFile = fs.String("record-spill", "", "also spill every record to this file (requires -record)")
		preflight  = fs.Bool("preflight", false, "gate replacements on a replay of the recorded window (requires -record)")
		duration   = fs.Duration("duration", 0, "run time (0 = until interrupted)")
		sleepUnit  = fs.Duration("sleepunit", 10*time.Millisecond, "duration of one mh.Sleep tick")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specFile == "" || *srcDir == "" {
		return fmt.Errorf("-spec and -srcdir are required")
	}
	specText, err := os.ReadFile(*specFile)
	if err != nil {
		return err
	}

	cfg := reconf.Config{
		SpecText:        string(specText),
		Application:     *appName,
		Sources:         map[string]reconf.ModuleSource{},
		SleepUnit:       *sleepUnit,
		TraceSample:     *traceSmpl,
		TraceBuffer:     *traceBuf,
		RecordBuffer:    *recordBuf,
		PreflightReplay: *preflight,
	}
	if *recordFile != "" {
		if *recordBuf <= 0 {
			return fmt.Errorf("-record-spill requires -record")
		}
		spill, err := os.Create(*recordFile)
		if err != nil {
			return err
		}
		defer spill.Close()
		cfg.RecordSpill = spill
	}
	entries, err := os.ReadDir(*srcDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := readModuleDir(filepath.Join(*srcDir, e.Name()))
		if err != nil {
			return err
		}
		if len(files) > 0 {
			cfg.Sources[e.Name()] = reconf.ModuleSource{Files: files}
		}
	}

	app, err := reconf.Load(cfg)
	if err != nil {
		return err
	}
	fmt.Println("application:", app.Application.Name)
	fmt.Println(app.Topology())
	if rec := app.Recorder(); rec != nil {
		fmt.Printf("recording: ring capacity %d, preflight replay %v\n", rec.Cap(), *preflight)
	}

	// Launch local instances; instances whose module has no local source
	// wait for a remote attachment.
	remoteWait := []string{}
	for _, inst := range app.Application.Instances {
		if _, ok := cfg.Sources[inst.Module]; !ok {
			remoteWait = append(remoteWait, inst.Name)
			continue
		}
		if inst.Replicated() {
			for i := 1; i <= inst.Replicas; i++ {
				member := fmt.Sprintf("%s.%d", inst.Name, i)
				if err := app.Launch(member); err != nil {
					return err
				}
				fmt.Println("launched", member)
			}
			app.Supervisor(inst.Name).Start()
			continue
		}
		if err := app.Launch(inst.Name); err != nil {
			return err
		}
		fmt.Println("launched", inst.Name)
	}
	if len(remoteWait) > 0 {
		fmt.Println("waiting for remote attachments:", strings.Join(remoteWait, ", "))
	}
	// The launch loop above replaces App.Start (it skips instances that
	// wait for remote attachments), so arm the rollup roller here the way
	// App.Start would; app.Stop stops it on the way out.
	app.Timeseries().Start()

	if *listenAddr != "" {
		l, err := net.Listen("tcp", *listenAddr)
		if err != nil {
			return err
		}
		srv := bus.NewServer(app.Bus(), l)
		defer srv.Close()
		fmt.Println("module attachments on", srv.Addr())
	}
	if *ctlAddr != "" {
		l, err := net.Listen("tcp", *ctlAddr)
		if err != nil {
			return err
		}
		ctl := app.ServeControl(l)
		defer ctl.Close()
		fmt.Println("control plane on", ctl.Addr())
	}
	if *obsAddr != "" {
		l, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return err
		}
		var opts []reconf.ObsOption
		if *obsPprof {
			opts = append(opts, reconf.WithPprof())
		}
		obs := app.ServeObs(l, opts...)
		defer obs.Close()
		fmt.Println("observability on", obs.Addr())
	} else if *obsPprof {
		return fmt.Errorf("-pprof requires -obs-addr")
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-sigs:
		}
	} else {
		<-sigs
	}

	fmt.Println("\nfinal topology:")
	fmt.Println(app.Topology())
	fmt.Println("\nreconfiguration trace:")
	fmt.Println(reconf.FormatTrace(app.Trace()))
	st := app.Bus().Stats()
	fmt.Printf("\nbus stats: delivered=%d dropped=%d rebinds=%d signals=%d moves=%d\n",
		st.Delivered, st.Dropped, st.Rebinds, st.Signals, st.Moves)
	app.Stop()
	return nil
}

func readModuleDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = string(data)
	}
	return files, nil
}
