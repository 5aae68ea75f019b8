package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/archive/serve"
	"repro/internal/campaign"
)

// archiveSize sizes the archive workload.
type archiveSize struct {
	// seeds is the seed axis length of the campaign grid.
	seeds int
	// reads is the dashboard reads of one session, split evenly over
	// readClients keep-alive clients in a closed loop.
	reads int
	// minSessions is the fewest timed sessions a measurement makes.
	minSessions int
}

// archiveGrid is the benchmark's archive workload: 2x2 at payload 0.01,
// 2 iterations, window 0-3 and 64 seeds, so 4 x 64 = 256 cells.
var archiveGrid = archiveSize{seeds: 64, reads: 480, minSessions: 8}

const (
	readClients = 2
	// archiveNMIFloor is the lowest acceptable mean cell NMI.
	archiveNMIFloor = 0.2
)

// archiveSpec is the archive workload's campaign: many tiny cells, so
// orchestration rather than simulation dominates the writes.
func archiveSpec(seed int64, n int) (*campaign.Spec, error) {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = subSeed(seed, i)
	}
	return campaign.NewBuilder("perfbench-archive").
		Scenario("2x2").Scales(0.01).Iterations(2).Window(0, 1, 2, 3).Seeds(seeds...).Spec()
}

// endpoint is one entry of the dashboard read mix.
type endpoint struct {
	name string // per-layer metric stem
	path func(r *rand.Rand, keys []string) string
	svg  bool
}

var readMix = []endpoint{
	{name: "status", path: func(*rand.Rand, []string) string { return "/status" }},
	{name: "runs", path: func(*rand.Rand, []string) string { return "/runs" }},
	{name: "run", path: func(r *rand.Rand, keys []string) string { return "/runs/" + keys[r.Intn(len(keys))] }},
	{name: "marginals", path: func(r *rand.Rand, _ []string) string { return "/marginals/" + mixAxes[r.Intn(len(mixAxes))] }},
	{name: "plots", path: func(r *rand.Rand, _ []string) string { return "/plots/" + mixAxes[r.Intn(len(mixAxes))] + ".svg" }, svg: true},
}

var mixAxes = []string{"window", "seed"}

// readSample is one completed dashboard read.
type readSample struct {
	endpoint    string
	seconds     float64
	bytes       int
	revalidated bool
	status      int
}

// session is one archive session's measurements and check results.
type session struct {
	wall, cpu, warm, readWall float64
	allocMB, gcs              float64
	hits                      int
	// problems are the failed checks of the warm resume.
	problems   []string
	reads      []readSample
	readErrors []string
}

// archiveBench holds what every session of a run shares: the grid, the
// archive directory and the HTTP service reading it.
type archiveBench struct {
	size  archiveSize
	spec  *campaign.Spec
	keys  []string
	cells int
	dir   string
	url   string
	rng   *rand.Rand
	http  *http.Client
	// coldCSV is campaign.csv as the cold campaign wrote it.
	coldCSV []byte
	// logSize is the length of manifest.log after the cold campaign.
	logSize int64
}

// run measures the archive workload.
func (size archiveSize) run(cfg config, rep *report) error {
	spec, err := archiveSpec(cfg.seed, size.seeds)
	if err != nil {
		return err
	}
	var runs []campaign.Run
	setup, err := setupTime(20, func() (err error) {
		runs, err = spec.Expand()
		return err
	})
	if err != nil {
		return fmt.Errorf("archive: expand: %w", err)
	}
	rep.set("setup_s", setup)
	if cfg.trace {
		rep.set("campaign.expand_s", setup)
	}

	dir, err := filepath.Abs(filepath.Join(cfg.workDir, fmt.Sprintf("archive-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := archive.Open(dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.Handler(st)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: readClients, DisableCompression: true}
	defer func() {
		tr.CloseIdleConnections()
		srv.Close()
		<-served
	}()
	b := &archiveBench{
		size:  size,
		spec:  spec,
		cells: len(runs),
		dir:   dir,
		url:   "http://" + ln.Addr().String(),
		rng:   rand.New(rand.NewSource(cfg.seed)),
		http:  &http.Client{Transport: tr},
	}
	for _, r := range runs {
		b.keys = append(b.keys, r.Key)
	}
	if cfg.trace {
		return b.traceSessions(cfg, rep)
	}

	// The cold campaign writes the archive every session reads. Its time
	// is fsync-bound and drifts with the disk, so it is reported in the
	// notes and per layer, not in run_s.
	cold, man := b.writeCold(nil, rep)
	coldNMI := math.NaN()
	if man != nil {
		coldNMI, _ = cellNMI(man)
	}
	// Warm-up session, untimed and unreported, except for its checks.
	b.count(rep, b.session(nil))
	var walls, cpus, warms, lat []float64
	var readWall float64
	start := time.Now()
	for i := 0; i < size.minSessions || time.Since(start) < cfg.seconds; i++ {
		s := b.session(nil)
		b.count(rep, s)
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		warms = append(warms, s.warm)
		lat = append(lat, readLatenciesMS(s.reads)...)
		readWall += s.readWall
	}
	rep.set("run_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("peak_rss_mb", peakRSSMB())
	p, ps := highestPercentile(len(lat)), highestPercentile(len(walls))
	rep.note("cold campaign: %.4fs (%.0f cells/s), mean cell NMI %.4f", cold, float64(b.cells)/cold, coldNMI)
	rep.note("session run_s: n=%d p50=%.4fs p%g=%.4fs; resume p50=%.4fs",
		len(walls), median(walls), ps, quantile(walls, ps/100), median(warms))
	rep.note("reads: n=%d p50=%.3fms p%g=%.3fms, %.0f reads/s", len(lat), median(lat), p, quantile(lat, p/100), float64(len(lat))/readWall)
	return nil
}

// opts are the campaign options of every invocation.
func (b *archiveBench) opts() campaign.ExecOptions {
	return campaign.ExecOptions{OutDir: b.dir, Jobs: runtime.NumCPU(), Resume: true}
}

// writeCold empties the archive and writes the grid into it cold,
// returning the campaign's wall time and manifest. Each cell is one
// operation, and the campaign's checks one more: every cell computed and
// scored, and the mean cell NMI at or above the floor.
func (b *archiveBench) writeCold(t *archiveTrace, rep *report) (float64, *campaign.Manifest) {
	var problems []string
	if err := os.RemoveAll(b.dir); err != nil {
		problems = append(problems, err.Error())
	}
	sp := t.start("campaign.cold")
	t0 := time.Now()
	out, err := campaign.Execute(b.spec, b.opts())
	secs := time.Since(t0).Seconds()
	t.end(sp)
	failed := b.cells
	var man *campaign.Manifest
	if out != nil {
		man = out.Manifest
		failed = man.Failures
		if man.Misses != b.cells {
			problems = append(problems, fmt.Sprintf("cold campaign computed %d of %d cells", man.Misses, b.cells))
		}
		if m, n := cellNMI(man); n != b.cells {
			problems = append(problems, fmt.Sprintf("%d of %d cells scored", n, b.cells))
		} else if m < archiveNMIFloor {
			problems = append(problems, fmt.Sprintf("mean cell NMI %.4f below the floor %.2f", m, archiveNMIFloor))
		}
	} else {
		problems = append(problems, fmt.Sprintf("cold campaign: %v", err))
	}
	for i := 0; i < b.cells; i++ {
		if i < failed {
			rep.op("cold campaign cell failed")
		} else {
			rep.op()
		}
	}
	b.coldCSV, err = os.ReadFile(filepath.Join(b.dir, "campaign.csv"))
	if err != nil {
		problems = append(problems, err.Error())
	}
	if fi, err := os.Stat(b.logPath()); err != nil {
		problems = append(problems, err.Error())
	} else {
		b.logSize = fi.Size()
	}
	rep.op(problems...)
	return secs, man
}

// cellNMI returns the mean NMI of a campaign's scored cells and their
// number.
func cellNMI(man *campaign.Manifest) (float64, int) {
	var nmis []float64
	for _, e := range man.Entries {
		if e.NMI != nil {
			nmis = append(nmis, *e.NMI)
		}
	}
	return mean(nmis), len(nmis)
}

// logPath is the archive's streamed manifest, which every invocation
// appends to.
func (b *archiveBench) logPath() string { return filepath.Join(b.dir, "manifest.log") }

// count records a session's operations: the warm resume and each read.
func (b *archiveBench) count(rep *report, s *session) {
	rep.op(s.problems...)
	for _, r := range s.reads {
		if r.status == http.StatusOK || (r.status == http.StatusNotModified && r.revalidated) {
			rep.op()
		} else {
			rep.op(fmt.Sprintf("read %s: status %d", r.endpoint, r.status))
		}
	}
	for _, e := range s.readErrors {
		rep.op(e)
	}
}

// archiveTrace records spans under one root; nil records nothing.
type archiveTrace struct {
	tr   *tracer
	root int
}

func (t *archiveTrace) start(name string) int {
	if t == nil {
		return 0
	}
	return t.tr.start(t.root, name, 0)
}

func (t *archiveTrace) end(id int) {
	if t != nil {
		t.tr.end(id)
	}
}

// session resumes the grid warm, which must hit every cell and reproduce
// the cold campaign.csv byte for byte, then reads the archive back
// through the HTTP service.
func (b *archiveBench) session(t *archiveTrace) *session {
	s := &session{}
	// Each resume appends every cell to manifest.log, which the reads
	// parse; cutting it back to its cold length gives every session the
	// same archive to resume and read.
	if err := os.Truncate(b.logPath(), b.logSize); err != nil {
		s.problems = append(s.problems, err.Error())
	}
	a0, g0 := runtimeCounters()
	c0, t0 := processCPU(), time.Now()
	sp := t.start("campaign.warm")
	warm, err := campaign.Execute(b.spec, b.opts())
	t.end(sp)
	s.warm = time.Since(t0).Seconds()
	if err != nil {
		s.problems = append(s.problems, fmt.Sprintf("warm resume: %v", err))
	} else {
		s.hits = warm.Manifest.Hits
	}
	if s.hits != b.cells {
		s.problems = append(s.problems, fmt.Sprintf("warm resume hit %d of %d cells", s.hits, b.cells))
	}
	csv, err := os.ReadFile(filepath.Join(b.dir, "campaign.csv"))
	if err != nil || !bytes.Equal(csv, b.coldCSV) {
		s.problems = append(s.problems, "campaign.csv differs between cold and warm")
	}

	r0 := time.Now()
	s.reads, s.readErrors = b.readLoop(t)
	s.readWall = time.Since(r0).Seconds()
	s.wall = time.Since(t0).Seconds()
	s.cpu = (processCPU() - c0).Seconds()
	a1, g1 := runtimeCounters()
	s.allocMB, s.gcs = float64(a1-a0)/(1<<20), float64(g1-g0)
	return s
}

// readLoop runs readClients keep-alive clients, each issuing its share
// of sessionReads in a closed loop over the mix: a client cycles the
// endpoints, and every other pass revalidates with the ETag its last full
// response for that path carried.
func (b *archiveBench) readLoop(t *archiveTrace) ([]readSample, []string) {
	paths := make([][]string, readClients)
	for c := range paths {
		for i := 0; i < b.size.reads/readClients; i++ {
			paths[c] = append(paths[c], readMix[i%len(readMix)].path(b.rng, b.keys))
		}
	}
	out := make([][]readSample, readClients)
	errs := make([][]string, readClients)
	var wg sync.WaitGroup
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			etags := map[string]string{}
			for i, path := range paths[c] {
				ep := readMix[i%len(readMix)]
				revalidate := (i/len(readMix))%2 == 1 && etags[path] != ""
				sp := t.start("serve." + ep.name)
				r, etag, err := b.read(path, ep.svg, etags[path], revalidate)
				t.end(sp)
				if err != nil {
					errs[c] = append(errs[c], fmt.Sprintf("read %s: %v", path, err))
					continue
				}
				r.endpoint = ep.name
				if etag != "" {
					etags[path] = etag
				}
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []readSample
	var problems []string
	for c := range out {
		all = append(all, out[c]...)
		problems = append(problems, errs[c]...)
	}
	return all, problems
}

// read issues one GET and checks that a full response's body parses.
func (b *archiveBench) read(path string, svg bool, etag string, revalidate bool) (readSample, string, error) {
	req, err := http.NewRequest(http.MethodGet, b.url+path, nil)
	if err != nil {
		return readSample{}, "", err
	}
	if revalidate {
		req.Header.Set("If-None-Match", etag)
	}
	t0 := time.Now()
	resp, err := b.http.Do(req)
	if err != nil {
		return readSample{}, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := readSample{seconds: time.Since(t0).Seconds(), bytes: len(body), revalidated: revalidate, status: resp.StatusCode}
	if err != nil {
		return r, "", err
	}
	if resp.StatusCode == http.StatusOK {
		if err := parses(body, svg); err != nil {
			return r, "", fmt.Errorf("body does not parse: %w", err)
		}
	}
	return r, resp.Header.Get("ETag"), nil
}

func parses(body []byte, svg bool) error {
	if !svg {
		var v any
		return json.Unmarshal(body, &v)
	}
	dec := xml.NewDecoder(bytes.NewReader(body))
	for {
		if _, err := dec.Token(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func readLatenciesMS(reads []readSample) []float64 {
	out := make([]float64, len(reads))
	for i, r := range reads {
		out[i] = r.seconds * 1e3
	}
	return out
}

// coldReps is how many cold campaigns a traced run writes.
const coldReps = 3

// traceSessions writes the grid cold coldReps times, then alternates an
// untraced session with a traced one, and reports the per-layer metrics
// of the campaign, archive and serve layers.
func (b *archiveBench) traceSessions(cfg config, rep *report) error {
	tr := newTracer()
	var (
		plain, traced, cellSecs, perCell, cps []float64
		resume, hit, alloc, gcs, lat, nmis    []float64
		store                                 = map[string][]float64{}
		byEndpoint                            = map[string][]float64{}
		selfCPU                               = map[string]float64{}
		revalidated, notModified              int
		tracedReads, bodyBytes                int
		readWall                              float64
		sessions                              int
	)
	for i := 0; i < coldReps; i++ {
		at := &archiveTrace{tr: tr}
		at.root = tr.start(0, "cold", 0)
		secs, man := b.writeCold(at, rep)
		tr.end(at.root)
		perCell = append(perCell, secs/float64(b.cells))
		cps = append(cps, float64(b.cells)/secs)
		if man != nil {
			m, _ := cellNMI(man)
			nmis = append(nmis, m)
			for _, e := range man.Entries {
				if e.Cache == "miss" {
					cellSecs = append(cellSecs, e.WallSeconds)
				}
			}
		}
	}
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < cfg.seconds; i++ {
		s := b.session(nil)
		b.count(rep, s)
		plain = append(plain, s.wall)
		lat = append(lat, readLatenciesMS(s.reads)...)
		readWall += s.readWall
		alloc = append(alloc, s.allocMB)
		gcs = append(gcs, s.gcs)

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		at := &archiveTrace{tr: tr}
		at.root = tr.start(0, "session", 0)
		s = b.session(at)
		b.timeStore(at, store, rep)
		tr.end(at.root)
		pprof.StopCPUProfile()
		b.count(rep, s)
		self, err := selfTimeByPackage(prof.Bytes())
		if err != nil {
			return err
		}
		for pkg, v := range self {
			selfCPU[pkg] += v
		}
		sessions++
		traced = append(traced, s.wall)
		resume = append(resume, s.warm)
		hit = append(hit, float64(s.hits)/float64(b.cells))
		for _, r := range s.reads {
			byEndpoint[r.endpoint] = append(byEndpoint[r.endpoint], r.seconds*1e3)
			if r.revalidated {
				revalidated++
				if r.status == http.StatusNotModified {
					notModified++
				}
			}
			bodyBytes += r.bytes
			tracedReads++
		}
	}
	nb, nf := dirUsage(b.dir)
	rep.set("campaign.cell_s", median(cellSecs))
	rep.set("campaign.wall_per_cell_s", median(perCell))
	rep.set("campaign.hit_ratio", mean(hit))
	rep.set("campaign.cells_per_s", median(cps))
	rep.set("campaign.resume_s", median(resume))
	rep.set("campaign.bytes_per_cell", float64(nb)/float64(b.cells))
	rep.set("campaign.files_per_cell", float64(nf)/float64(b.cells))
	for _, m := range []string{"runs", "status", "marginals", "get", "stamp"} {
		rep.set("archive."+m+"_s", median(store[m]))
	}
	for _, ep := range readMix {
		rep.set("serve."+ep.name+"_ms", median(byEndpoint[ep.name]))
	}
	rep.set("serve.read_p50_ms", median(lat))
	rep.set("serve.read_p99_ms", quantile(lat, 0.99))
	rep.set("serve.reads_per_s", float64(len(lat))/readWall)
	rep.set("serve.not_modified_ratio", float64(notModified)/float64(revalidated))
	rep.set("serve.bytes_per_read", float64(bodyBytes)/float64(tracedReads))
	rep.set("nmi.final", mean(nmis))
	rep.set("runtime.alloc_mb", median(alloc))
	rep.set("runtime.gc_cycles", median(gcs))
	setSelfCPU(rep, selfCPU, sessions)
	rep.set("trace.overhead_ratio", median(traced)/median(plain))
	rep.note("traced %d sessions: run_s untraced p50=%.4fs traced p50=%.4fs; %d untraced reads support p%g; %d spans",
		sessions, median(plain), median(traced), len(lat), highestPercentile(len(lat)), tr.len())
	for _, pkg := range sortedKeys(selfCPU) {
		if v := selfCPU[pkg] / float64(sessions); v >= 0.005 {
			rep.note("  self cpu per session %-36s %.3fs", pkg, v)
		}
	}
	return tr.write(cfg, "archive")
}

// timeStore times each archive.Store method directly on the archive the
// session wrote; each call is one operation.
func (b *archiveBench) timeStore(t *archiveTrace, out map[string][]float64, rep *report) {
	st, err := archive.Open(b.dir)
	if err != nil {
		rep.op(fmt.Sprintf("open archive: %v", err))
		return
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"runs", func() error { _, err := st.Runs(); return err }},
		{"status", func() error { _, err := st.Status(); return err }},
		{"marginals", func() error { _, err := st.Marginals("window"); return err }},
		{"get", func() error { _, err := st.Get(b.keys[b.rng.Intn(len(b.keys))]); return err }},
		{"stamp", func() error { st.Stamp(); return nil }},
	}
	for _, c := range calls {
		for i := 0; i < 5; i++ {
			sp := t.start("archive." + c.name)
			t0 := time.Now()
			err := c.call()
			secs := time.Since(t0).Seconds()
			t.end(sp)
			if err != nil {
				rep.op(fmt.Sprintf("archive.Store %s: %v", c.name, err))
				continue
			}
			rep.op()
			out[c.name] = append(out[c.name], secs)
		}
	}
}

// dirUsage returns the total size and number of regular files under dir.
func dirUsage(dir string) (bytes int64, files int) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}
