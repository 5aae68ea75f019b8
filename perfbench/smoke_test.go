package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i] || m.Unit != metricUnits[m.Name] {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i], metricUnits[endToEnd[i]])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i] || m.Unit != metricUnits[m.Name] {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i], metricUnits[perLayer[i]])
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
}

// TestSmoke runs each workload at minimal size, untraced and traced,
// and checks the result line: every declared metric, finite, and no
// failed operation.
func TestSmoke(t *testing.T) {
	runners := map[string]func(config, *report) error{
		"bgtl":    small(bgtl, 2, 2).run,
		"drift":   small(drift, 10, 2).run,
		"archive": archiveSize{seeds: 2, reads: 20, minSessions: 1}.run,
	}
	for name, runner := range runners {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: time.Millisecond, trace: trace, workDir: t.TempDir()}
			rep := newReport()
			if err := runner(cfg, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			names := endToEnd
			if trace {
				names = perLayer
			}
			res, err := rep.result(names)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(names))
			}
			if !trace {
				for _, n := range names {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// TestRunPrintsResultLast checks the output format of a whole run.
func TestRunPrintsResultLast(t *testing.T) {
	saved := workloads["bgtl"]
	defer func() { workloads["bgtl"] = saved }()
	workloads["bgtl"] = small(bgtl, 2, 1).run
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := config{workload: "bgtl", seed: 1, seconds: time.Millisecond, workDir: t.TempDir()}
	if err := run(cfg, f); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if !strings.Contains(string(out), "hardware: nproc=") {
		t.Error("no hardware fingerprint in the output")
	}
	var res map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", res)
	}
	if err := run(config{workload: "nope", seconds: time.Second}, f); err == nil {
		t.Error("unknown workload accepted")
	}
}
