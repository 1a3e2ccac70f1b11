// Command e2ebench is the repository's end-to-end benchmark. It loads
// the Figure 1 university database at scale 2000, drives one workload
// through the public pascalr API (or through client against
// internal/server on loopback) from two sessions, checks every result,
// and prints one JSON line of metrics. See README.md.
//
//	go run . --workload analytic --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pascalr"
	"pascalr/internal/workload"
)

// Served traffic: the fixed offered rate of the measured window, the
// ladder of rates max_rate_ops climbs, and the read_p99_ms limit a rung
// must meet.
const (
	servedRate  = 600.0
	readLimitMS = 50.0
)

var servedLadder = []float64{2500, 3500, 4500, 5500, 6500, 7500}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	digests  map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	writeDigests := flag.Bool("write-digests", false, "recompute digests.json with the tuple-substitution oracle (takes minutes) and exit")
	flag.StringVar(&cfg.workload, "workload", "analytic", "analytic, durable-mixed or served")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the statement stream: literals, fresh keys, mix order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced leg and prints the per-layer metrics")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/work", "directory for data directories and span files")
	flag.Parse()
	if *writeDigests {
		if err := recomputeDigests("digests.json"); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = traceFlag == 1
	digests, err := committedDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg.digests = digests
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// run measures the workload and returns its metrics: the end-to-end
// ones untraced, the per-layer ones traced. An untraced run sets the
// workload up from empty several times and measures an equal share of
// the window on each set-up; every end-to-end metric other than a
// latency is the median over the set-ups, so neither one slow set-up
// nor a burst of interference from outside the benchmark decides it.
func run(cfg config, log io.Writer) (*result, error) {
	w, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	o, err := newOracle()
	if err != nil {
		return nil, err
	}
	script, err := workload.UniversityScript(scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, w: w, o: o, env: &env{script: script, workDir: cfg.workDir}, chk: &recorder{}, log: log}
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		if _, err := r.instance(0, dur, 0, put); err != nil {
			return nil, err
		}
	} else {
		// On served each set-up spends a third of its share climbing
		// the ladder.
		window, ladder := dur, time.Duration(0)
		if w.openLoop {
			window = dur * 2 / 3
			ladder = (dur - window) / time.Duration(w.setups)
		}
		share := window / time.Duration(w.setups)
		var all []instanceStats
		for i := 0; i < w.setups; i++ {
			st, err := r.instance(i, share, ladder, nil)
			if err != nil {
				return nil, err
			}
			all = append(all, st)
		}
		med := func(f func(instanceStats) float64) float64 {
			var xs []float64
			for _, st := range all {
				xs = append(xs, f(st))
			}
			return median(xs)
		}
		put("setup_s", med(func(s instanceStats) float64 { return s.setupS }), "s")
		put("throughput_ops", med(func(s instanceStats) float64 { return s.throughput }), "ops/s")
		// Latency quantiles pool the set-ups' samples: a tail quantile
		// needs every sample it can get.
		var read, write []float64
		for _, st := range all {
			read, write = append(read, st.read...), append(write, st.write...)
		}
		read, write = sortedCopy(read), sortedCopy(write)
		put("read_p50_ms", quantile(read, 0.50), "ms")
		put("read_p99_ms", quantile(read, 0.99), "ms")
		put("write_p50_ms", quantile(write, 0.50), "ms")
		put("write_p99_ms", quantile(write, 0.99), "ms")
		put("max_rate_ops", med(func(s instanceStats) float64 { return s.maxRate }), "ops/s")
		put("alloc_bytes_per_op", med(func(s instanceStats) float64 { return s.allocPerOp }), "B")
		put("heap_live_mb", med(func(s instanceStats) float64 { return s.heapBytes / (1 << 20) }), "MB")
		put("space_amp", med(func(s instanceStats) float64 { return s.spaceAmp }), "ratio")
	}
	res.Attempted, res.Failed = r.chk.attempted, r.chk.failed
	res.Correct = res.Failed == 0
	if !cfg.trace {
		put("ok_frac", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	}
	for _, e := range r.chk.errs {
		fmt.Fprintln(log, "FAILED:", e)
	}
	return res, nil
}

// runner holds what the set-ups of one run share.
type runner struct {
	cfg config
	w   spec
	o   *oracle
	env *env
	chk *recorder // every checked statement's outcome
	log io.Writer
}

// instanceStats are the end-to-end statistics of one set-up.
type instanceStats struct {
	throughput, setupS, heapBytes, spaceAmp, allocPerOp, maxRate float64
	read, write                                                  []float64 // latencies in ms
}

// instance sets the workload up from empty, calibrates and warms it,
// measures it for dur, climbs the served ladder for ladder (when
// positive), and checks every acknowledged write. Untraced (put is nil)
// it returns its statistics; traced it runs half of dur untraced and
// half traced and puts the per-layer metrics.
func (r *runner) instance(id int, dur, ladder time.Duration, put func(string, float64, string)) (st instanceStats, err error) {
	w, chk := r.w, r.chk
	base := liveHeap()
	start := time.Now()
	sys, err := w.open(r.env)
	if err != nil {
		return st, err
	}
	st.setupS = time.Since(start).Seconds()
	st.heapBytes = float64(liveHeap()) - float64(base)
	defer func() {
		if cerr := sys.close(); err == nil {
			err = cerr
		}
	}()
	disk, durable := sys.(*diskSystem)
	if durable && id == 0 {
		n, err := dirBytes(disk.dir)
		if err != nil {
			return st, err
		}
		fmt.Fprintf(r.log, "%s: data directory after set-up %d bytes; block cache 8 MiB; user rows %d bytes\n", w.name, n, r.o.userBytes)
	}

	sessions := make([]session, 2)
	gens := make([]*gen, 2)
	mixes := w.sessionWeights()
	for i := range sessions {
		if sessions[i], err = sys.session(); err != nil {
			return st, err
		}
		defer sessions[i].close()
		gens[i] = newGen(r.cfg.seed, 3*id+i, mixes[i], r.o, r.cfg.digests)
	}
	costs := calibrate(sys, sessions[0], w.weights, newGen(0, -1, w.weights, r.o, r.cfg.digests), chk)

	loop := func(d time.Duration, traced bool) phase {
		if w.openLoop {
			return openLoop(sessions, gens, w.sessionRates(servedRate), d, traced)
		}
		return closedLoop(sessions, gens, d, traced)
	}
	absorb := func(p phase) {
		m := p.merged()
		chk.attempted += m.attempted
		chk.failed += m.failed
		chk.errs = append(chk.errs, m.errs...)
	}
	absorb(loop(min(time.Second, dur/8), false)) // warm caches and plans

	if put == nil {
		rt0 := readRuntime()
		p := loop(dur, false)
		rt1 := readRuntime()
		absorb(p)
		m := p.merged()
		ops := float64(len(m.read) + len(m.write))
		st.read, st.write = m.read, m.write
		st.throughput = ops / p.elapsed.Seconds()
		st.allocPerOp = float64(rt1.totalAlloc-rt0.totalAlloc) / ops
		st.maxRate = st.throughput
		if ladder > 0 {
			var steps []phase
			st.maxRate, steps = climbLadder(w, sessions, gens, ladder/time.Duration(len(servedLadder)), r.log)
			for _, p := range steps {
				absorb(p)
			}
		}
		if w.readOnly {
			g := newGen(r.cfg.seed, 3*id+2, map[string]int{"insert": 1, "delete": 1}, r.o, r.cfg.digests)
			gens = append(gens, g)
			probe := closedLoop(sessions[:1], []*gen{g}, dur/20, false)
			absorb(probe)
			st.write = probe.merged().write
		}
		fmt.Fprintf(r.log, "%s set-up %d: %.3fs; %d reads, %d writes in %.1fs\n", w.name, id, st.setupS, len(m.read), len(m.write), p.elapsed.Seconds())
	} else {
		half := dur / 2
		untraced := loop(half, false)
		before, rt0 := scrape(), readRuntime()
		traced := loop(half, true)
		if durable {
			// Close's checkpoint would come too late to be counted.
			if err := sys.database().Checkpoint(); err != nil {
				return st, err
			}
		}
		dl, rt1 := delta(before, scrape()), readRuntime()
		absorb(untraced)
		absorb(traced)
		perLayer(put, w, untraced, traced, dl, rt0, rt1, weighted(costs, newMix(w.weights)))
		tm := traced.merged()
		path := filepath.Join(r.cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, r.cfg.seed))
		if err := writeTraces(path, tm.traces); err != nil {
			return st, err
		}
		fmt.Fprintf(r.log, "%s: %d traced statements written to %s\n", w.name, len(tm.traces), path)
	}

	// Every acknowledged write is visible; on disk it survives a final
	// checkpoint, closing and reopening the directory.
	if durable {
		if err := disk.d.Checkpoint(); err != nil {
			return st, err
		}
		n, err := dirBytes(disk.dir)
		if err != nil {
			return st, err
		}
		liveUser := r.o.userBytes
		for _, g := range gens {
			liveUser += int64(len(g.live)) * rowWidth["papers"]
		}
		st.spaceAmp = float64(n) / float64(liveUser)
		if err := disk.reopen(); err != nil {
			return st, err
		}
	} else {
		st.spaceAmp = st.heapBytes / float64(r.o.userBytes) // the heap was measured at set-up
	}
	verifyWrites(sys.database(), gens, chk)
	return st, nil
}

// verifyWrites checks the database against the acknowledged writes:
// the papers relation holds exactly the generated rows plus the live
// fresh papers, every acknowledged insert not deleted since is present,
// every acknowledged delete is absent, and Example 2.1 still returns
// its committed result.
func verifyWrites(d *pascalr.Database, gens []*gen, chk *recorder) {
	g0 := gens[0]
	chk.do(&inproc{d: d}, g0, g0.stmtFor("example21"), time.Time{}, false)
	res, err := d.Query(`[<p.ptitle> OF EACH p IN papers: p.pyear = 1980]`)
	chk.attempted++
	if err != nil {
		chk.fail(fmt.Errorf("read back fresh papers: %w", err))
		return
	}
	present := map[string]bool{}
	for _, row := range res.Rows() {
		present[row[0].(string)] = true
	}
	live := 0
	for _, g := range gens {
		live += len(g.live)
		for title := range g.inserted {
			gone := g.deleted[title]
			chk.attempted++
			if present[title] == gone {
				chk.fail(fmt.Errorf("paper %q: present=%v after an acknowledged %s", title, present[title],
					map[bool]string{true: "delete", false: "insert"}[gone]))
			}
		}
	}
	n, err := d.RelationLen("papers")
	chk.attempted++
	if want := 2*scale + live; err != nil || n != want {
		chk.fail(fmt.Errorf("papers holds %d rows, want %d (%v)", n, want, err))
	}
}

// climbLadder offers each rate of the ladder for step and returns the
// highest rate whose reads meet readLimitMS without a growing backlog,
// interpolated between the last rung that met the limit and the first
// that missed it.
func climbLadder(w spec, sessions []session, gens []*gen, step time.Duration, log io.Writer) (float64, []phase) {
	var steps []phase
	prevRate, prevMS := 0.0, 0.0
	for _, rate := range servedLadder {
		p := openLoop(sessions, gens, w.sessionRates(rate), step, false)
		steps = append(steps, p)
		m := p.merged()
		ms := math.Max(quantile(sortedCopy(m.read), 0.99), float64(p.lag.Nanoseconds())/1e6)
		fmt.Fprintf(log, "ladder %.0f ops/s: read p99 %.3f ms, backlog %v\n", rate, ms, p.lag)
		if ms > readLimitMS || m.failed > 0 {
			// Interpolate on log latency, which near saturation climbs
			// far faster than linearly in the offered rate.
			frac := readLimitMS / ms // the first rung missed: scale down from it
			if prevMS > 0 {
				frac = math.Log(readLimitMS/prevMS) / math.Log(ms/prevMS)
			}
			return prevRate + (rate-prevRate)*frac, steps
		}
		prevRate, prevMS = rate, ms
	}
	return prevRate, steps
}

// recomputeDigests evaluates every paper query with the oracle and
// writes the digests, after checking that the engine agrees.
func recomputeDigests(path string) error {
	script, err := workload.UniversityScript(scale)
	if err != nil {
		return err
	}
	d, err := pascalr.Open(script)
	if err != nil {
		return err
	}
	defer d.Close()
	names := make([]string, 0, len(paperQueries))
	for name := range paperQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := map[string]string{}
	for _, name := range names {
		start := time.Now()
		want, err := d.Query(paperQueries[name], pascalr.WithBaseline())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		got, err := d.Query(paperQueries[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = digest(want.Rows())
		if g := digest(got.Rows()); g != out[name] {
			return fmt.Errorf("%s: engine digest %s, oracle %s", name, g, out[name])
		}
		fmt.Fprintf(os.Stderr, "%s: %s (%v)\n", name, out[name], time.Since(start))
	}
	js, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
