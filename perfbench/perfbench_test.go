package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// shortConfig runs a workload on tiny inputs for a fraction of a second.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace,
		workDir: t.TempDir(), short: true}
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestShortWorkloads runs every workload, untraced and traced, on short
// inputs: no operation may fail, and every metric the run prints — in
// the human-readable lines and in the JSON line — must be declared in
// BENCHMARK.json with the same unit, the JSON line carrying exactly the
// declared list of its mode.
func TestShortWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range f.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		units[m.Name] = m.Unit
	}
	declared := map[string]bool{}
	for _, w := range f.Workloads {
		declared[w.Name] = true
	}
	for name := range workloads {
		if !declared[name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", name)
		}
		for _, trace := range []bool{false, true} {
			cfg := shortConfig(t, name, trace)
			res, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", name, trace, res.failed, res.attempted, res.failures)
			}
			var out bytes.Buffer
			if err := report(&out, cfg, res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines {
				if fields := strings.Fields(l); len(fields) == 4 && fields[0] == "metric" {
					if u, ok := units[fields[1]]; !ok || u != fields[3] {
						t.Errorf("%s: printed metric %s %s is not declared with that unit", name, fields[1], fields[3])
					}
				}
			}
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			want := len(f.EndToEnd)
			if trace {
				want = len(f.PerLayer)
			}
			if !last.Correct || len(last.Metrics) != want {
				t.Errorf("%s trace=%v: correct=%v with %d metrics, want %d", name, trace, last.Correct, len(last.Metrics), want)
			}
			for m, v := range last.Metrics {
				if units[m] != v.Unit {
					t.Errorf("%s: metric %s unit %q, declared %q", name, m, v.Unit, units[m])
				}
			}
		}
	}
}

// TestDeclarations pins BENCHMARK.json to the metrics the code measures.
func TestDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the code %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if f.EndToEnd[i].Name != m.name || f.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, code has %s %s", i, f.EndToEnd[i].Name, f.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if f.PerLayer[i].Name != m.name || f.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, code has %s %s", i, f.PerLayer[i].Name, f.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code runs %d", len(f.Workloads), len(workloads))
	}
}

// TestPlantedFaults shows the output checks catch a corrupted MIS and a
// tampered checkpoint chain link.
func TestPlantedFaults(t *testing.T) {
	for _, c := range []struct{ workload, plant string }{
		{"cold-start", "mis"},
		{"dist-run", "mis"},
		{"steady-recover", "chain"},
	} {
		cfg := shortConfig(t, c.workload, false)
		cfg.plant = c.plant
		res, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.plant, err)
		}
		if res.failed == 0 {
			t.Errorf("%s with a planted %s fault: fail_frac 0 over %d attempted", c.workload, c.plant, res.attempted)
		}
	}
}
