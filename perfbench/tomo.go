package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"repro"
	"repro/internal/bittorrent"
	"repro/internal/core"
	"repro/internal/scenario"
)

// tomoWorkload is a tomography workload: one scenario measured with one
// option set, repeatedly, each repetition on its own seed.
type tomoWorkload struct {
	name string
	spec func() (*scenario.Spec, error)
	// opts returns the run options for a seed.
	opts func(seed int64) core.Options
	// minReps is the fewest timed runs a measurement makes, whatever
	// --seconds says.
	minReps int
	// nmiFloor is the lowest acceptable mean final NMI over the seeds a
	// measurement ran. Final NMI at a reduced payload varies widely from
	// seed to seed; the floor catches a broken pipeline, not a bad seed.
	nmiFloor float64
}

// bgtl is the paper's hardest static setting (E11/Fig. 12): BGTL, 64
// hosts in 4 sites, 30 iterations clustered after each (Fig. 13), at a
// reduced payload.
var bgtl = tomoWorkload{
	name: "bgtl",
	spec: func() (*scenario.Spec, error) {
		sp, ok := scenario.Lookup("BGTL")
		if !ok {
			return nil, fmt.Errorf("scenario BGTL is not registered")
		}
		return sp, nil
	},
	opts: func(seed int64) core.Options {
		o := core.DefaultOptions()
		o.Iterations = 30
		o.ClusterEvery = 1
		o.BT.FileBytes = int(float64(o.BT.FileBytes) * 0.05)
		o.Seed = seed
		o.Workers = runtime.NumCPU()
		return o
	},
	minReps:  8,
	nmiFloor: 0.25,
}

// drift is a fabric whose uplinks drift, that a burst loads, whose site1
// uplink fails and recovers mid-broadcast and whose hosts churn, with a
// sliding window retiring old counts.
var drift = tomoWorkload{
	name: "drift",
	spec: func() (*scenario.Spec, error) {
		return scenario.DriftSites(4, 16, 890, 100, 0.5), nil
	},
	opts: func(seed int64) core.Options {
		o := core.DefaultOptions()
		o.Iterations = 12
		o.Window = 4
		o.ClusterEvery = 1
		o.BT.FileBytes = int(float64(o.BT.FileBytes) * 0.1)
		o.Seed = seed
		o.Workers = runtime.NumCPU()
		return o
	},
	minReps:  8,
	nmiFloor: 0.05,
}

// subSeed is the run seed of repetition i of a measurement with
// workload seed seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// setupTime runs a set-up step reps times after as many untimed
// warm-up calls, and returns the median time of a call.
func setupTime(reps int, step func() error) (float64, error) {
	times := make([]float64, reps)
	for i := -reps; i < reps; i++ {
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		if i >= 0 {
			times[i] = time.Since(t0).Seconds()
		}
	}
	return median(times), nil
}

// run measures the workload: untraced, or with --trace 1 traced.
func (w tomoWorkload) run(cfg config, rep *report) error {
	sp, err := w.spec()
	if err != nil {
		return err
	}
	var d *repro.Dataset
	setup, err := setupTime(200, func() (err error) {
		d, err = sp.Compile()
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: compile: %w", w.name, err)
	}
	rep.set("setup_s", setup)
	if cfg.trace {
		return traceTomo(cfg, w, d, rep)
	}
	return measureTomo(cfg, w, d, rep)
}

// measureTomo times repro.Run with tracing off.
func measureTomo(cfg config, w tomoWorkload, d *repro.Dataset, rep *report) error {
	digests := map[int64][32]byte{}
	// The untimed warm-up lets the heap and caches settle; timed
	// repetition 0 repeats its seed, so every measurement checks that a
	// seed reproduces its result.
	if _, err := checkedRun(w, d, subSeed(cfg.seed, 0), digests, rep); err != nil {
		return err
	}
	var walls, cpus, nmis []float64
	start := time.Now()
	for i := 0; i < w.minReps || time.Since(start) < cfg.seconds; i++ {
		c0, t0 := processCPU(), time.Now()
		res, err := checkedRun(w, d, subSeed(cfg.seed, i), digests, rep)
		wall, cpu := time.Since(t0), processCPU()-c0
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		nmis = append(nmis, res.NMI)
	}
	checkNMIFloor(w, nmis, rep)
	rep.set("run_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("peak_rss_mb", peakRSSMB())
	p := highestPercentile(len(walls))
	rep.note("run_s: n=%d p50=%.4fs p%g=%.4fs; cpu_s p50=%.4fs; parallelism cpu/wall=%.2f on %d workers; mean final NMI %.4f",
		len(walls), median(walls), p, quantile(walls, p/100), median(cpus), median(cpus)/median(walls), w.opts(0).Workers, mean(nmis))
	return nil
}

// checkNMIFloor fails one operation when the mean final NMI over the
// measured seeds is below the workload's floor.
func checkNMIFloor(w tomoWorkload, nmis []float64, rep *report) {
	if m := mean(nmis); m < w.nmiFloor {
		rep.op(fmt.Sprintf("mean final NMI %.4f over %d seeds is below the floor %.2f", m, len(nmis), w.nmiFloor))
	}
}

// checkedRun runs repro.Run for one seed and checks its output: every
// broadcast conserves fragments, the final NMI is a number in [0, 1],
// and a seed seen before reproduces its result digest.
func checkedRun(w tomoWorkload, d *repro.Dataset, seed int64, digests map[int64][32]byte, rep *report) (*core.Result, error) {
	res, err := repro.Run(d, w.opts(seed))
	if err != nil {
		return nil, fmt.Errorf("%s: run seed %d: %w", w.name, seed, err)
	}
	problems := checkResult(res, w.opts(seed), d.N())
	sum := digest(res)
	if prev, ok := digests[seed]; ok && prev != sum {
		problems = append(problems, fmt.Sprintf("seed %d: result digest differs between repeats", seed))
	}
	digests[seed] = sum
	rep.op(problems...)
	return res, nil
}

// checkResult returns the output checks a tomography result fails.
func checkResult(res *core.Result, opts core.Options, hosts int) []string {
	var problems []string
	if len(res.Iterations) != opts.Iterations {
		problems = append(problems, fmt.Sprintf("%d iteration records for %d iterations", len(res.Iterations), opts.Iterations))
	}
	pieces := opts.BT.NumFragments()
	for _, it := range res.Iterations {
		if it.Broadcast == nil {
			problems = append(problems, fmt.Sprintf("iteration %d: broadcast not retained", it.Iteration))
			continue
		}
		if msg := conservation(it.Broadcast, pieces, activeCount(it.ActiveHosts, hosts)); msg != "" {
			problems = append(problems, fmt.Sprintf("iteration %d: %s", it.Iteration, msg))
		}
	}
	if math.IsNaN(res.NMI) || res.NMI < 0 || res.NMI > 1+1e-9 {
		problems = append(problems, fmt.Sprintf("final NMI %v outside [0, 1]", res.NMI))
	}
	return problems
}

func activeCount(active []int, hosts int) int {
	if active == nil {
		return hosts
	}
	return len(active)
}

// conservation checks that a complete broadcast delivered every piece to
// every host but the root exactly once.
func conservation(b *bittorrent.Result, pieces, active int) string {
	if b.N != active {
		return fmt.Sprintf("broadcast over %d hosts, want %d", b.N, active)
	}
	if got, want := b.TotalFragments(), pieces*(active-1); got != want {
		return fmt.Sprintf("%d fragments delivered, want pieces x (hosts-1) = %d", got, want)
	}
	return ""
}

// digest hashes everything a tomography result reports: the final graph,
// partition and scores, and per iteration the broadcast counts and the
// clustering.
func digest(res *core.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	ints := func(xs []int) {
		u(uint64(len(xs)))
		for _, x := range xs {
			u(uint64(x))
		}
	}
	if res.Graph != nil {
		for _, e := range res.Graph.Edges() {
			u(uint64(e.U))
			u(uint64(e.V))
			f(e.Weight)
		}
	}
	ints(res.Partition.Labels)
	f(res.Q)
	f(res.NMI)
	f(res.TotalMeasurementTime)
	for _, it := range res.Iterations {
		u(uint64(it.Iteration))
		ints(it.Partition.Labels)
		f(it.Q)
		f(it.NMI)
		ints(it.ActiveHosts)
		if it.Clustered {
			u(1)
		} else {
			u(0)
		}
		if b := it.Broadcast; b != nil {
			f(b.Duration)
			u(b.Flows)
			for _, row := range b.Fragments {
				ints(row)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// traceTomo alternates an untraced repro.Run with the traced pipeline on
// the same seed, checks that both give the same result bit for bit, and
// reports the per-layer metrics of the traced runs.
func traceTomo(cfg config, w tomoWorkload, d *repro.Dataset, rep *report) error {
	tr := newTracer()
	var (
		plain, traced     []float64
		nmis              []float64
		allocMB, gcCycles []float64
		lay               layerSamples
		selfCPU           = map[string]float64{}
		bcastAlloc        float64
		runs              int
	)
	digests := map[int64][32]byte{}
	// Warm up as the untraced measurement does.
	if _, err := checkedRun(w, d, subSeed(cfg.seed, 0), digests, rep); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.seconds; i++ {
		seed := subSeed(cfg.seed, i)
		a0, g0 := runtimeCounters()
		t0 := time.Now()
		base, err := checkedRun(w, d, seed, digests, rep)
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())
		nmis = append(nmis, base.NMI)
		a1, g1 := runtimeCounters()
		allocMB = append(allocMB, float64(a1-a0)/(1<<20))
		gcCycles = append(gcCycles, float64(g1-g0))

		before := takeHeapSnapshot()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		t1 := time.Now()
		res, err := tracedRun(d, w.opts(seed), tr, &lay)
		secs := time.Since(t1).Seconds()
		pprof.StopCPUProfile()
		if err != nil {
			return fmt.Errorf("%s: traced run seed %d: %w", w.name, seed, err)
		}
		after := takeHeapSnapshot()
		traced = append(traced, secs)
		runs++
		bcastAlloc += allocBytesWithin(before, after, "repro/internal/bittorrent")
		self, err := selfTimeByPackage(prof.Bytes())
		if err != nil {
			return err
		}
		for pkg, s := range self {
			selfCPU[pkg] += s
		}
		problems := checkResult(res, w.opts(seed), d.N())
		if digest(res) != digest(base) {
			problems = append(problems, fmt.Sprintf("seed %d: traced pipeline result differs from repro.Run", seed))
		}
		problems = append(problems, lay.problems...)
		lay.problems = nil
		rep.op(problems...)
	}
	checkNMIFloor(w, nmis, rep)
	nb := float64(len(lay.broadcast))
	rep.set("sim.events", mean(lay.events))
	rep.set("simnet.solves", mean(lay.solves))
	rep.set("simnet.flows", mean(lay.flows))
	rep.set("simnet.us_per_solve", selfCPU["repro/internal/simnet"]/(mean(lay.solves)*nb)*1e6)
	rep.set("simnet.clone_s", median(lay.clone))
	rep.set("dynamics.apply_s", median(lay.apply))
	rep.set("bittorrent.broadcast_s", median(lay.broadcast))
	rep.set("bittorrent.broadcast_p90_s", quantile(lay.broadcast, 0.9))
	rep.set("bittorrent.alloc_mb", bcastAlloc/nb/(1<<20))
	rep.set("bittorrent.fragments", mean(lay.fragments))
	rep.set("substrate.busy_s", median(lay.busy))
	rep.set("substrate.wall_s", median(lay.wall))
	rep.set("substrate.efficiency", median(lay.busy)/(median(lay.wall)*float64(w.opts(0).Workers)))
	rep.set("graph.merge_s", median(lay.merge))
	rep.set("cluster.louvain_s", median(lay.louvain))
	rep.set("cluster.levels", mean(lay.levels))
	rep.set("nmi.lfk_s", median(lay.lfk))
	rep.set("nmi.final", mean(nmis))
	rep.set("runtime.alloc_mb", median(allocMB))
	rep.set("runtime.gc_cycles", median(gcCycles))
	setSelfCPU(rep, selfCPU, runs)
	rep.set("trace.overhead_ratio", median(traced)/median(plain))
	rep.note("traced %d runs: run_s untraced p50=%.4fs traced p50=%.4fs; %d broadcasts, %d spans",
		runs, median(plain), median(traced), len(lay.broadcast), tr.len())
	for _, pkg := range sortedKeys(selfCPU) {
		if s := selfCPU[pkg] / float64(runs); s >= 0.01 {
			rep.note("  self cpu per run %-36s %.3fs", pkg, s)
		}
	}
	return tr.write(cfg, w.name)
}
