package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// selfTest runs every workload of BENCHMARK.json briefly, untraced and
// traced, and checks that the oracle accounted for every message sent and
// that every named metric was emitted with its unit.
func selfTest() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		wl, ok := findWorkload(w.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, trace := range []bool{false, true} {
			o := options{wl: wl, seed: 1, seconds: time.Second, warmup: 200 * time.Millisecond, setups: 1, trace: trace}
			res, err := run(o)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", wl.name, trace, err)
			}
			// Round-trip the JSON line exactly as the benchmark prints it.
			line, err := json.Marshal(res.output(trace))
			if err != nil {
				return err
			}
			var out struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				return err
			}
			if out.Correct == nil || out.Attempted < 1 {
				return fmt.Errorf("%s trace=%v: no oracle verdict in %s", wl.name, trace, line)
			}
			// The oracle ran: every sent id was seen or is listed as lost.
			if res.arrived == 0 || res.arrived+int64(len(res.missing)) != out.Attempted {
				return fmt.Errorf("%s trace=%v: oracle accounted for %d of %d ids", wl.name, trace,
					res.arrived+int64(len(res.missing)), out.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(out.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", wl.name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					return fmt.Errorf("%s trace=%v: metric %s missing or unit %q != %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			fmt.Printf("selftest: %s trace=%v ok (sent %d, failed %d, correct %v)\n", wl.name, trace, out.Attempted, out.Failed, *out.Correct)
		}
	}
	return nil
}
