package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro"
	"repro/internal/bittorrent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nmi"
	"repro/internal/sim"
)

// layerSamples collects the traced pipeline's per-call measurements.
type layerSamples struct {
	// Per broadcast.
	events, solves, flows, fragments []float64
	clone, apply, broadcast          []float64
	// Per run: the sum and the union of the per-iteration spans.
	busy, wall []float64
	// Per merge and per clustering.
	merge, louvain, levels, lfk []float64
	// problems are output checks the traced calls failed.
	problems []string
}

// iterOut is one measured iteration handed from a worker to the merge.
type iterOut struct {
	it     int
	bres   *bittorrent.Result
	err    error
	active []int    // dense indices of the broadcasting hosts; nil = all
	span   interval // clone start to broadcast end
	evs    uint64   // events fired on the replica engine
	solves uint64   // max-min solves on the replica network
	// Seconds spent in each call.
	clone, apply, broadcast float64
}

// tracedRun is repro.Run's replica path rebuilt from the layers' public
// functions, with a span around every call: per iteration a network clone
// on a fresh engine, the dynamics replay and the broadcast, on as many
// goroutines as opts.Workers; then, in iteration order, the fragment
// fold into the count graph, Louvain and the NMI score. It draws from the
// same named RNG streams as the core pipeline, so for the same options
// its Result must equal repro.Run's bit for bit.
func tracedRun(d *repro.Dataset, opts core.Options, tr *tracer, lay *layerSamples) (*core.Result, error) {
	hosts := d.Hosts
	n := len(hosts)
	tl := d.Timeline
	rng := sim.NewRNG(opts.Seed)
	root := tr.start(0, "run", 0)
	defer tr.end(root)

	// Per-iteration host sets under churn, as dense indices.
	active := make([][]int, opts.Iterations+1)
	iterHosts := make([][]int, opts.Iterations+1)
	for it := 1; it <= opts.Iterations; it++ {
		iterHosts[it] = hosts
		if a := tl.ActiveHosts(it); a != nil {
			sub := make([]int, len(a))
			for j, h := range a {
				sub[j] = hosts[h]
			}
			if !opts.RotateRoot && opts.BT.Root >= len(sub) {
				return nil, fmt.Errorf("iteration %d: root %d outside the %d active hosts", it, opts.BT.Root, len(sub))
			}
			active[it], iterHosts[it] = a, sub
		}
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > opts.Iterations {
		workers = opts.Iterations
	}
	tasks := make(chan int)
	results := make(chan iterOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range tasks {
				out := measureIter(d, opts, it, iterHosts[it], rng, tr, root)
				out.active = active[it]
				results <- out
			}
		}()
	}
	go func() {
		for it := 1; it <= opts.Iterations; it++ {
			tasks <- it
		}
		close(tasks)
		wg.Wait()
		close(results)
	}()

	counts := graph.New(n)
	for i := 0; i < n; i++ {
		counts.SetLabel(i, d.Net.Name(hosts[i]))
	}
	res := &core.Result{}
	var window []iterOut
	if opts.Window > 0 {
		window = make([]iterOut, opts.Window)
	}
	pending := map[int]iterOut{}
	var spans []interval
	var firstErr error
	next := 1
	for out := range results {
		if out.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("iteration %d: %w", out.it, out.err)
			}
			continue
		}
		pending[out.it] = out
		for {
			cur, ok := pending[next]
			if !ok || firstErr != nil {
				break
			}
			delete(pending, next)
			spans = append(spans, cur.span)
			lay.events = append(lay.events, float64(cur.evs))
			lay.solves = append(lay.solves, float64(cur.solves))
			lay.flows = append(lay.flows, float64(cur.bres.Flows))
			lay.fragments = append(lay.fragments, float64(cur.bres.TotalFragments()))
			lay.clone = append(lay.clone, cur.clone)
			lay.apply = append(lay.apply, cur.apply)
			lay.broadcast = append(lay.broadcast, cur.broadcast)
			if cur.solves < 1 {
				lay.problems = append(lay.problems, fmt.Sprintf("iteration %d: no max-min solve", next))
			}
			mergeIter(opts, cur, counts, window, res, rng, d.GroundTruth, tr, root, lay)
			next++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	lay.busy = append(lay.busy, busyTime(spans).Seconds())
	lay.wall = append(lay.wall, wallTime(spans).Seconds())
	return res, nil
}

// measureIter runs one iteration's broadcast on a private replica.
func measureIter(d *repro.Dataset, opts core.Options, it int, hosts []int, rng *sim.RNG, tr *tracer, root int) iterOut {
	out := iterOut{it: it}
	begin := time.Now()
	sp := tr.start(root, "simnet.clone", it)
	eng := sim.NewEngine()
	replica := d.Net.Clone(eng)
	out.clone = tr.end(sp)
	sp = tr.start(root, "dynamics.apply", it)
	d.Timeline.Apply(it, eng, replica)
	out.apply = tr.end(sp)
	cfg := opts.BT
	if opts.RotateRoot {
		cfg.Root = (it - 1) % len(hosts)
	}
	sp = tr.start(root, "bittorrent.broadcast", it)
	out.bres, out.err = bittorrent.RunBroadcast(eng, replica, hosts, cfg, rng.Streamf("broadcast", it))
	out.broadcast = tr.end(sp)
	out.span = interval{begin, time.Now()}
	out.evs, out.solves = eng.Fired(), replica.Solves()
	return out
}

// mergeIter folds iteration it into the counts, retires the iteration
// that left the window, and clusters and scores when due — the core
// pipeline's merge, step for step.
func mergeIter(opts core.Options, cur iterOut, counts *graph.Graph, window []iterOut,
	res *core.Result, rng *sim.RNG, truth []int, tr *tracer, root int, lay *layerSamples) {
	it, active := cur.it, cur.active
	sp := tr.start(root, "graph.merge", it)
	res.TotalMeasurementTime += cur.bres.Duration
	fold(counts, cur.bres, active, 1)
	if opts.Window > 0 {
		slot := (it - 1) % opts.Window
		if it > opts.Window {
			old := window[slot]
			fold(counts, old.bres, old.active, -1)
		}
		window[slot] = cur
	}
	lay.merge = append(lay.merge, tr.end(sp))

	rec := core.IterationRecord{Iteration: it, NMI: math.NaN(), ActiveHosts: active, Broadcast: cur.bres}
	if it == opts.Iterations || (opts.ClusterEvery > 0 && it%opts.ClusterEvery == 0) {
		span := it
		if opts.Window > 0 && opts.Window < it {
			span = opts.Window
		}
		sp = tr.start(root, "cluster.louvain", it)
		mean := counts.Scale(1 / float64(span))
		if opts.TopFraction > 0 && opts.TopFraction < 1 {
			mean = mean.TopFraction(opts.TopFraction)
		}
		lou := cluster.Louvain(mean, rng.Streamf("louvain", it))
		lay.louvain = append(lay.louvain, tr.end(sp))
		lay.levels = append(lay.levels, float64(len(lou.Levels)))
		rec.Partition, rec.Q, rec.Clustered = lou.Partition, lou.Q, true
		if truth != nil {
			sp = tr.start(root, "nmi.lfk", it)
			rec.NMI = score(truth, lou.Partition.Labels, active)
			lay.lfk = append(lay.lfk, tr.end(sp))
		}
		if it == opts.Iterations {
			res.Graph, res.Partition, res.Q, res.NMI = mean, lou.Partition, lou.Q, rec.NMI
		}
	}
	res.Iterations = append(res.Iterations, rec)
}

// fold adds (sign +1) or retires (sign -1) one broadcast's fragment
// counts; active maps the broadcast's dense indices to the run's hosts.
func fold(counts *graph.Graph, b *bittorrent.Result, active []int, sign float64) {
	k := b.N
	idx := func(i int) int {
		if active == nil {
			return i
		}
		return active[i]
	}
	for a := 0; a < k; a++ {
		for c := a + 1; c < k; c++ {
			if w := b.Exchanged(a, c); w > 0 {
				counts.AddWeight(idx(a), idx(c), sign*float64(w))
			}
		}
	}
}

// score is the LFK NMI of found against truth over the active hosts.
func score(truth, found, active []int) float64 {
	if active == nil {
		return nmi.LFKPartition(truth, found)
	}
	ts := make([]int, len(active))
	fs := make([]int, len(active))
	for i, a := range active {
		ts[i], fs[i] = truth[a], found[a]
	}
	return nmi.LFKPartition(ts, fs)
}
