package main

import (
	"testing"

	"repro"
	"repro/internal/core"
)

// small shrinks a tomography workload to test size: a tiny payload and
// few iterations, keeping its scenario, window and dynamics.
func small(w tomoWorkload, iterations int, workers int) tomoWorkload {
	opts := w.opts
	w.opts = func(seed int64) core.Options {
		o := opts(seed)
		o.Iterations = iterations
		o.BT.FileBytes = 24 * o.BT.FragmentSize
		o.Workers = workers
		return o
	}
	w.minReps = 1
	w.nmiFloor = 0
	return w
}

// TestTracedRunMatchesRun checks the traced pipeline against repro.Run
// bit for bit, on the static and on the drifting workload (dynamics
// events up to iteration 8, churn and a window), at several worker
// counts.
func TestTracedRunMatchesRun(t *testing.T) {
	for _, c := range []struct {
		w          tomoWorkload
		iterations int
	}{
		{bgtl, 4},
		{drift, 10},
	} {
		sp, err := c.w.spec()
		if err != nil {
			t.Fatal(err)
		}
		d, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			w := small(c.w, c.iterations, workers)
			for _, seed := range []int64{1, 2} {
				opts := w.opts(seed)
				want, err := repro.Run(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				var lay layerSamples
				got, err := tracedRun(d, opts, newTracer(), &lay)
				if err != nil {
					t.Fatal(err)
				}
				if digest(got) != digest(want) {
					t.Errorf("%s workers=%d seed=%d: traced result differs from repro.Run", w.name, workers, seed)
				}
				if p := checkResult(got, opts, d.N()); len(p) > 0 {
					t.Errorf("%s: %v", w.name, p)
				}
				if len(lay.problems) > 0 {
					t.Errorf("%s: %v", w.name, lay.problems)
				}
				if len(lay.solves) != opts.Iterations || len(lay.louvain) != opts.Iterations {
					t.Errorf("%s: %d broadcasts and %d clusterings traced for %d iterations",
						w.name, len(lay.solves), len(lay.louvain), opts.Iterations)
				}
			}
		}
	}
}

// TestDigestSeesDifferences makes sure the fidelity check can fail.
func TestDigestSeesDifferences(t *testing.T) {
	w := small(bgtl, 2, 1)
	sp, _ := w.spec()
	d, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := repro.Run(d, w.opts(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.Run(d, w.opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if digest(a) == digest(b) {
		t.Error("different seeds gave the same digest")
	}
	sum := digest(a)
	a.Iterations[0].Broadcast.Fragments[1][0]++
	if digest(a) == sum {
		t.Error("digest ignores the broadcast counts")
	}
	if p := checkResult(a, w.opts(1), d.N()); len(p) == 0 {
		t.Error("conservation check missed an extra fragment")
	}
}
