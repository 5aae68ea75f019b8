package simnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// solveReference is the progressive-filling solver as it stood before
// channels kept persistent flow membership: each call rebuilds a flow
// list per crossed channel and rescans every channel and every flow,
// fixed ones included, at every fill level. It is the differential oracle
// for solve. It returns the rates in n.flows order and leaves the network
// untouched; the arithmetic, and the order it runs in, is unchanged.
func solveReference(n *Network) []float64 {
	type chanState struct {
		nUnfixed  int
		usedFixed float64
		flows     []*Flow
	}
	state := make(map[*channel]*chanState)
	fixed := make([]bool, len(n.flows))
	rate := make([]float64, len(n.flows))
	// Build per-channel flow lists.
	var chans []*channel
	for _, f := range n.flows {
		for _, c := range f.path {
			s := state[c]
			if s == nil {
				s = &chanState{}
				state[c] = s
				chans = append(chans, c)
			}
			s.flows = append(s.flows, f)
		}
	}
	for _, c := range chans {
		state[c].nUnfixed = len(state[c].flows)
		state[c].usedFixed = 0
	}
	unfixed := len(n.flows)
	level := 0.0
	for unfixed > 0 {
		// Next binding constraint above the current fill level.
		delta := math.Inf(1)
		for _, c := range chans {
			s := state[c]
			if s.nUnfixed == 0 {
				continue
			}
			d := (c.effectiveCapacity() - s.usedFixed - level*float64(s.nUnfixed)) / float64(s.nUnfixed)
			if d < delta {
				delta = d
			}
		}
		for i, f := range n.flows {
			if fixed[i] || f.cap == 0 {
				continue
			}
			if d := f.cap - level; d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		// Fix flows at binding constraints.
		const eps = 1e-9
		progressed := false
		for i, f := range n.flows {
			if fixed[i] {
				continue
			}
			bind := f.cap != 0 && f.cap-level <= eps*(1+level)
			if !bind {
				for _, c := range f.path {
					s := state[c]
					cap := c.effectiveCapacity()
					room := cap - s.usedFixed - level*float64(s.nUnfixed)
					if room <= eps*(1+cap) {
						bind = true
						break
					}
				}
			}
			if bind {
				fixed[i] = true
				rate[i] = level
				progressed = true
				unfixed--
				for _, c := range f.path {
					s := state[c]
					s.nUnfixed--
					s.usedFixed += level
				}
			}
		}
		if !progressed {
			// Numerical stall: fix everything at the current level.
			for i := range n.flows {
				if !fixed[i] {
					fixed[i] = true
					rate[i] = level
					unfixed--
				}
			}
		}
	}
	return rate
}

// randomNetwork builds a connected random topology of hosts and switches:
// a random spanning tree plus extra links, some of them parallel to
// existing ones, with capacities drawn from a small set so that ties
// (several constraints binding at one level) are common, and per-flow
// caps on some links. It returns the hosts and every link's endpoints.
func randomNetwork(rng *rand.Rand, eng *sim.Engine) (*Network, []int, [][2]int) {
	n := New(eng)
	var hosts, verts []int
	for i, nh := 0, 2+rng.Intn(9); i < nh; i++ {
		h := n.AddHost("h")
		hosts = append(hosts, h)
		verts = append(verts, h)
	}
	for i, ns := 0, rng.Intn(5); i < ns; i++ {
		verts = append(verts, n.AddSwitch("s"))
	}
	rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
	caps := []float64{50, 100, 100, 250, 1000, 1000}
	spec := func() LinkSpec {
		s := LinkSpec{Capacity: caps[rng.Intn(len(caps))], Latency: 0.001 * float64(rng.Intn(5))}
		if rng.Intn(4) == 0 {
			s.PerFlowCap = caps[rng.Intn(len(caps))] * 0.6
		}
		return s
	}
	var links [][2]int
	for i := 1; i < len(verts); i++ {
		a, b := verts[rng.Intn(i)], verts[i]
		n.Connect(a, b, spec())
		links = append(links, [2]int{a, b})
	}
	for i, extra := 0, rng.Intn(5); i < extra; i++ {
		var a, b int
		if rng.Intn(2) == 0 {
			l := links[rng.Intn(len(links))] // parallel link
			a, b = l[0], l[1]
		} else {
			a, b = verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))]
			if a == b {
				continue
			}
		}
		n.Connect(a, b, spec())
		links = append(links, [2]int{a, b})
	}
	return n, hosts, links
}

// checkSolve compares every active flow's rate with the oracle bit for
// bit and checks the max-min properties and the membership invariants.
func checkSolve(t *testing.T, n *Network) {
	t.Helper()
	ref := solveReference(n)
	for i, f := range n.flows {
		if math.Float64bits(f.rate) != math.Float64bits(ref[i]) {
			t.Fatalf("solve %d: flow %d rate %v (%#x), oracle %v (%#x)",
				n.solves, f.id, f.rate, math.Float64bits(f.rate), ref[i], math.Float64bits(ref[i]))
		}
	}
	// Membership: nFlows and busy match a recount from n.flows.
	count := make(map[*channel]int)
	for _, f := range n.flows {
		for _, c := range f.path {
			count[c]++
		}
	}
	if len(n.busy) != len(count) {
		t.Fatalf("solve %d: busy holds %d channels, %d are crossed", n.solves, len(n.busy), len(count))
	}
	for i, c := range n.busy {
		if c.busySlot != i || c.nFlows != count[c] {
			t.Fatalf("solve %d: busy[%d] has slot %d and nFlows %d, want slot %d and %d flows",
				n.solves, i, c.busySlot, c.nFlows, i, count[c])
		}
	}
	// Max-min: no channel is overloaded, and every flow is at its cap or
	// crosses a saturated channel on which no flow has a higher rate.
	load := make(map[*channel]float64)
	top := make(map[*channel]float64)
	for _, f := range n.flows {
		for _, c := range f.path {
			load[c] += f.rate
			top[c] = math.Max(top[c], f.rate)
		}
	}
	for c, l := range load {
		if cap := c.effectiveCapacity(); l-cap > 1e-9*cap {
			t.Fatalf("solve %d: channel %d->%d carries %v over capacity %v", n.solves, c.from, c.to, l, cap)
		}
	}
	for _, f := range n.flows {
		if f.cap != 0 && f.rate >= f.cap*(1-1e-9) {
			continue
		}
		bottleneck := false
		for _, c := range f.path {
			cap := c.effectiveCapacity()
			if load[c] >= cap-1e-8*(1+cap) && top[c] <= f.rate {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			t.Fatalf("solve %d: flow %d at rate %v is below its cap %v and has no bottleneck",
				n.solves, f.id, f.rate, f.cap)
		}
	}
}

// TestSolveMatchesReference drives random flow arrivals, completions and
// cancels, per-flow caps, link failures (zero-rate stalls) and capacity
// changes over random topologies, and checks every solve against the
// oracle and the max-min properties.
func TestSolveMatchesReference(t *testing.T) {
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		eng := sim.NewEngine()
		n, hosts, links := randomNetwork(rng, eng)
		var started []*Flow
		for op := 0; op < 80; op++ {
			at := rng.Float64() * 40
			switch r := rng.Intn(10); {
			case r < 6:
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				if src == dst {
					continue
				}
				size := float64(100 + rng.Intn(5000))
				var rateCap float64
				if rng.Intn(3) == 0 {
					rateCap = float64(20 + rng.Intn(400))
				}
				eng.ScheduleAt(at, func() {
					started = append(started, n.StartFlowRateLimited(src, dst, size, rateCap, nil))
				})
			case r < 7:
				pick := rng.Int()
				eng.ScheduleAt(at, func() {
					if len(started) > 0 {
						n.CancelFlow(started[pick%len(started)])
					}
				})
			case r < 9:
				l := links[rng.Intn(len(links))]
				up := rng.Intn(3) != 0
				eng.ScheduleAt(at, func() { n.SetLinkState(l[0], l[1], up) })
			default:
				l := links[rng.Intn(len(links))]
				capacity := float64(10 + rng.Intn(1000))
				eng.ScheduleAt(at, func() { n.SetLinkCapacity(l[0], l[1], capacity) })
			}
		}
		var checked uint64
		for steps := 0; eng.Step(); steps++ {
			if steps > 100000 {
				t.Fatalf("trial %d: simulation did not drain", trial)
			}
			if n.solves != checked {
				checked = n.solves
				checkSolve(t, n)
			}
		}
	}
}

// TestPathCacheInvalidatedByTopologyChange checks that a cached path is
// shared between lookups and dropped when the topology changes.
func TestPathCacheInvalidatedByTopologyChange(t *testing.T) {
	n := New(sim.NewEngine())
	a := n.AddHost("a")
	b := n.AddHost("b")
	s := n.AddSwitch("s")
	n.Connect(a, s, LinkSpec{Capacity: 100})
	n.Connect(s, b, LinkSpec{Capacity: 100})
	p := n.path(a, b)
	if len(p) != 2 {
		t.Fatalf("path a->b has %d hops, want 2", len(p))
	}
	if q := n.path(a, b); &q[0] != &p[0] {
		t.Fatal("a repeated lookup did not reuse the cached path")
	}
	n.Connect(a, b, LinkSpec{Capacity: 100})
	if q := n.path(a, b); len(q) != 1 {
		t.Fatalf("after a direct link, path a->b has %d hops, want 1", len(q))
	}
	c := n.AddHost("c")
	n.Connect(c, s, LinkSpec{Capacity: 100})
	if q := n.path(a, c); len(q) != 2 || q[1].to != c {
		t.Fatalf("path to a host added after caching: %d hops", len(q))
	}
}
