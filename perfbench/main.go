// Command perfbench is the repository's benchmark: it measures a
// tomography run on a static and on a drifting network, and a campaign
// archive's write and read paths, end to end and layer by layer.
//
//	bash perfbench/run.sh --workload bgtl --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it repeats the workload with spans and a
// CPU profile around calls into each layer and reports the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workDir holds the benchmark's scratch files (campaign archives,
	// written spans) inside the checkout.
	workDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operation counts, check failures and
// metrics.
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// op records one attempted operation and whether all of its output
// checks passed; failure messages are kept for the log.
func (r *report) op(problems ...string) {
	r.attempted++
	var bad []string
	for _, p := range problems {
		if p != "" {
			bad = append(bad, p)
		}
	}
	if len(bad) > 0 {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, strings.Join(bad, "; "))
		}
	}
}

func (r *report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd lists the metrics a --trace 0 run reports, and perLayer those
// a --trace 1 run reports; every workload reports all of them (a layer a
// workload does not exercise reads 0). metricUnits holds their units.
var (
	endToEnd = []string{"setup_s", "run_s", "cpu_s", "peak_rss_mb"}
	perLayer = []string{
		"sim.events", "sim.self_cpu_s",
		"simnet.solves", "simnet.flows", "simnet.self_cpu_s", "simnet.us_per_solve", "simnet.clone_s",
		"dynamics.apply_s",
		"bittorrent.broadcast_s", "bittorrent.broadcast_p90_s", "bittorrent.self_cpu_s",
		"bittorrent.alloc_mb", "bittorrent.fragments",
		"substrate.busy_s", "substrate.wall_s", "substrate.efficiency",
		"graph.merge_s", "cluster.louvain_s", "cluster.levels", "cluster.self_cpu_s", "nmi.lfk_s", "nmi.final",
		"runtime.alloc_mb", "runtime.gc_cycles", "runtime.self_cpu_s", "syscall.self_cpu_s", "json.self_cpu_s",
		"campaign.expand_s", "campaign.cell_s", "campaign.wall_per_cell_s", "campaign.hit_ratio",
		"campaign.cells_per_s", "campaign.resume_s", "campaign.bytes_per_cell", "campaign.files_per_cell",
		"archive.runs_s", "archive.status_s", "archive.marginals_s", "archive.get_s", "archive.stamp_s",
		"serve.status_ms", "serve.runs_ms", "serve.run_ms", "serve.marginals_ms", "serve.plots_ms",
		"serve.read_p50_ms", "serve.read_p99_ms", "serve.reads_per_s",
		"serve.not_modified_ratio", "serve.bytes_per_read",
		"trace.overhead_ratio",
	}
	metricUnits = map[string]string{
		"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",

		"sim.events": "count", "sim.self_cpu_s": "s",
		"simnet.solves": "count", "simnet.flows": "count", "simnet.self_cpu_s": "s",
		"simnet.us_per_solve": "us", "simnet.clone_s": "s",
		"dynamics.apply_s":       "s",
		"bittorrent.broadcast_s": "s", "bittorrent.broadcast_p90_s": "s", "bittorrent.self_cpu_s": "s",
		"bittorrent.alloc_mb": "MB", "bittorrent.fragments": "count",
		"substrate.busy_s": "s", "substrate.wall_s": "s", "substrate.efficiency": "1",
		"graph.merge_s": "s", "cluster.louvain_s": "s", "cluster.levels": "count",
		"cluster.self_cpu_s": "s", "nmi.lfk_s": "s", "nmi.final": "1",
		"runtime.alloc_mb": "MB", "runtime.gc_cycles": "count", "runtime.self_cpu_s": "s",
		"syscall.self_cpu_s": "s", "json.self_cpu_s": "s",
		"campaign.expand_s": "s", "campaign.cell_s": "s", "campaign.wall_per_cell_s": "s",
		"campaign.hit_ratio": "1", "campaign.cells_per_s": "1/s", "campaign.resume_s": "s",
		"campaign.bytes_per_cell": "B", "campaign.files_per_cell": "count",
		"archive.runs_s": "s", "archive.status_s": "s", "archive.marginals_s": "s",
		"archive.get_s": "s", "archive.stamp_s": "s",
		"serve.status_ms": "ms", "serve.runs_ms": "ms", "serve.run_ms": "ms",
		"serve.marginals_ms": "ms", "serve.plots_ms": "ms",
		"serve.read_p50_ms": "ms", "serve.read_p99_ms": "ms", "serve.reads_per_s": "1/s",
		"serve.not_modified_ratio": "1", "serve.bytes_per_read": "B",
		"trace.overhead_ratio": "1",
	}
)

// workloads maps a workload name to its runner. A runner returns an
// error only when the benchmark itself cannot run; failed output checks
// are recorded in the report.
var workloads = map[string]func(config, *report) error{
	"bgtl":    bgtl.run,
	"drift":   drift.run,
	"archive": archiveGrid.run,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: bgtl, drift or archive")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its notes, a metric table and,
// last, the JSON result line.
func run(cfg config, out *os.File) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have bgtl, drift, archive)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if cfg.workDir == "" {
		build := os.Getenv("CARGO_TARGET_DIR")
		if build == "" {
			build = ".bench_build"
		}
		cfg.workDir = filepath.Join(build, "perfbench")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	if cfg.trace {
		// Sample heap allocations finely enough to attribute them to a
		// layer; set before the workload allocates anything.
		runtime.MemProfileRate = 16 << 10
	}
	rep := newReport()
	if err := runner(cfg, rep); err != nil {
		return err
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res, err := rep.result(names)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(out, "hardware: %s\n", fingerprint())
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the JSON result with exactly the named metrics. A
// metric the workload did not measure reads 0; a non-finite one cannot
// be encoded or compared, so it reads 0 and counts as a failed
// operation.
func (r *report) result(names []string) (*result, error) {
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	metrics := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			m = metric{Value: 0, Unit: metricUnits[n]}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.op(fmt.Sprintf("metric %s is not finite", n))
			m.Value = 0
		}
		metrics[n] = m
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}

// sortedKeys returns a map's keys in order, for stable log output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
