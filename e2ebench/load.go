package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pascalr/internal/obs"
)

// stmt is one generated statement with the check its outcome must pass.
type stmt struct {
	template string
	write    bool
	src      string
	want     string   // digest the result must have; reads only
	key      paperKey // the fresh paper a write inserts or deletes
	live     int      // index of key in the generator's live list (deletes)
}

// paperKey is the <ptitle, penr> key of a fresh paper. Fresh papers carry
// pyear 1980, so no checked query result depends on them.
type paperKey struct {
	title string
	penr  int64
}

// userBytes is the declared width of the user data a write carries: a
// whole papers row for an insert, its <ptitle, penr> key for a delete.
func (s stmt) userBytes() int64 {
	if s.template == "insert" {
		return rowWidth["papers"]
	}
	return 40 + 8
}

// gen is one session's seeded statement stream and the log of the
// writes the database acknowledged to it.
type gen struct {
	rng      *rand.Rand
	mix      *mix
	o        *oracle
	digests  map[string]string
	prefix   string
	n        int
	live     []paperKey      // acknowledged inserts not yet deleted
	inserted map[string]bool // titles of every acknowledged insert
	deleted  map[string]bool // titles of every acknowledged delete
}

func newGen(seed int64, sessionID int, weights map[string]int, o *oracle, digests map[string]string) *gen {
	return &gen{
		rng:      rand.New(rand.NewSource(seed*7919 + int64(sessionID))),
		mix:      newMix(weights),
		o:        o,
		digests:  digests,
		prefix:   fmt.Sprintf("s%dc%dn", seed%1000000000, sessionID),
		inserted: map[string]bool{},
		deleted:  map[string]bool{},
	}
}

func (g *gen) next() stmt { return g.stmtFor(g.mix.pick(g.rng)) }

func (g *gen) stmtFor(template string) stmt {
	switch template {
	case "insert":
		k := paperKey{fmt.Sprintf("%s%d", g.prefix, g.n), 1 + g.rng.Int63n(scale)}
		g.n++
		return stmt{template: template, write: true, key: k,
			src: fmt.Sprintf("papers :+ [<%d, 1980, '%s'>];", k.penr, k.title)}
	case "delete":
		if len(g.live) == 0 {
			return g.stmtFor("insert")
		}
		i := g.rng.Intn(len(g.live))
		k := g.live[i]
		return stmt{template: template, write: true, key: k, live: i,
			src: fmt.Sprintf("papers :- [<'%s', %d>];", k.title, k.penr)}
	case "adhoc_employee", "adhoc_timetable", "adhoc_course":
		a := g.o.adhoc(template, g.rng)
		return stmt{template: template, src: a.src, want: a.want}
	case "timetable":
		return stmt{template: template, src: qTimetable, want: g.o.report}
	}
	name := template
	if template == "joinheavy_static" || template == "joinheavy_cost" {
		name = "joinheavy"
	}
	return stmt{template: template, src: preparedSrc[template].src, want: g.digests[name]}
}

// ack records a write the database acknowledged.
func (g *gen) ack(s stmt) {
	switch s.template {
	case "insert":
		g.live = append(g.live, s.key)
		g.inserted[s.key.title] = true
	case "delete":
		last := len(g.live) - 1
		g.live[s.live] = g.live[last]
		g.live = g.live[:last]
		g.deleted[s.key.title] = true
	}
}

// recorder collects one session's outcomes in one phase.
type recorder struct {
	read, write []float64 // latency in ms
	late        []float64 // generator lateness in µs, open loop only
	callUS      float64   // client-side time inside calls, from send
	writeUS     float64   // the part of callUS spent in writes
	userBytes   int64     // user bytes the acknowledged writes carried
	attempted   int64
	failed      int64
	errs        []string
	traces      []obs.TraceJSON
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// do runs one statement, times it from due (or from its send, when due
// is zero), checks its result, and records the outcome. With traced set
// the statement runs under its own trace: the benchmark's call span, with
// the program's spans nested beneath it in-process, or the server's
// trace attached beneath it over the wire.
func (r *recorder) do(sess session, g *gen, s stmt, due time.Time, traced bool) {
	ctx := context.Background()
	var tr *obs.Trace
	var call *obs.Span
	if traced {
		tr = obs.NewTrace("")
		call = tr.Root().Start("call " + s.template)
		ctx = obs.With(ctx, call)
	}
	start := time.Now()
	rows, err := sess.run(ctx, s)
	done := time.Now()
	call.End()
	tr.Finish()
	if due.IsZero() {
		due = start
	}
	r.attempted++
	if err == nil && !s.write {
		if got := digest(rows); got != s.want {
			err = fmt.Errorf("result digest %s, want %s (%s)", got, s.want, s.src)
		}
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", s.template, err))
		return
	}
	callUS := float64(done.Sub(start).Nanoseconds()) / 1e3
	r.callUS += callUS
	lat := float64(done.Sub(due).Nanoseconds()) / 1e6
	if s.write {
		r.write = append(r.write, lat)
		r.writeUS += callUS
		r.userBytes += s.userBytes()
		g.ack(s)
	} else {
		r.read = append(r.read, lat)
	}
	if traced {
		snap := tr.Snapshot()
		if !s.write {
			if err := attachServerTrace(&snap, sess); err != nil {
				r.fail(err)
				return
			}
		}
		r.traces = append(r.traces, snap)
	}
}

// attachServerTrace hangs the server's span tree of the statement just
// run beneath the benchmark's call span, re-based on the benchmark's clock.
func attachServerTrace(snap *obs.TraceJSON, sess session) error {
	st, err := sess.serverTrace()
	if err != nil || st == nil {
		return err
	}
	benchStart, err := time.Parse(time.RFC3339Nano, snap.Start)
	if err != nil {
		return err
	}
	serverStart, err := time.Parse(time.RFC3339Nano, st.Start)
	if err != nil {
		return err
	}
	root := st.Root
	root.Name = "server"
	rebase(&root, serverStart.Sub(benchStart).Microseconds())
	call := &snap.Root.Children[0]
	call.Children = append(call.Children, root)
	return nil
}

func rebase(sp *obs.SpanJSON, shift int64) {
	sp.StartUS += shift
	for i := range sp.Children {
		rebase(&sp.Children[i], shift)
	}
}

// phase is the merged outcome of all sessions over one measured window.
type phase struct {
	recs    []*recorder
	elapsed time.Duration
	lag     time.Duration // open loop: how long the last due request waited past the window
}

func (p phase) merged() *recorder {
	m := &recorder{}
	for _, r := range p.recs {
		m.read = append(m.read, r.read...)
		m.write = append(m.write, r.write...)
		m.late = append(m.late, r.late...)
		m.callUS += r.callUS
		m.writeUS += r.writeUS
		m.userBytes += r.userBytes
		m.attempted += r.attempted
		m.failed += r.failed
		m.errs = append(m.errs, r.errs...)
		m.traces = append(m.traces, r.traces...)
	}
	return m
}

func (p phase) ops() int { m := p.merged(); return len(m.read) + len(m.write) }

// closedLoop runs every session back to back for dur: each sends its
// next statement as soon as the previous one returns.
func closedLoop(sessions []session, gens []*gen, dur time.Duration, traced bool) phase {
	p := phase{recs: make([]*recorder, len(sessions))}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range sessions {
		p.recs[i] = &recorder{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p.recs[i].do(sessions[i], gens[i], gens[i].next(), time.Time{}, traced)
			}
		}(i)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// openLoop offers rates[i] statements per second on session i for dur,
// each session on its own fixed schedule regardless of how fast the
// server answers. A statement is timed from its due time, so a
// stall also delays the statements queued behind it.
func openLoop(sessions []session, gens []*gen, rates []float64, dur time.Duration, traced bool) phase {
	p := phase{recs: make([]*recorder, len(sessions))}
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	finished := make([]time.Time, len(sessions))
	var wg sync.WaitGroup
	for i := range sessions {
		p.recs[i] = &recorder{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := p.recs[i]
			interval := time.Duration(float64(time.Second) / rates[i])
			offset := time.Duration(i) * interval / time.Duration(len(sessions))
			for k := 0; ; k++ {
				due := start.Add(offset + time.Duration(k)*interval)
				if !due.Before(end) {
					break
				}
				idle := time.Now().Before(due)
				waitUntil(due)
				if idle {
					r.late = append(r.late, float64(time.Since(due).Nanoseconds())/1e3)
				}
				r.do(sessions[i], gens[i], gens[i].next(), due, traced)
			}
			finished[i] = time.Now()
		}(i)
	}
	wg.Wait()
	last := start
	for _, f := range finished {
		if f.After(last) {
			last = f
		}
	}
	p.lag = max(0, last.Sub(end))
	p.elapsed = last.Sub(start) // until the last completion, so the drain counts too
	return p
}

// spinWindow is how long before a due time waitUntil stops sleeping
// and yields in a loop instead. On a virtual machine a sleeping thread
// wakes up to a few milliseconds late (Go timers by a millisecond even
// at the median), which would be counted as the server's latency; a
// yielding generator keeps its core awake and sends on time.
const spinWindow = 3 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only shortens the wait; the loop below finishes it
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// cost is the paper's cost units and the vectorized path's counts for
// one execution of one template.
type cost struct {
	tuples, probes, cmps, refs, peakRefs, hashJoins float64
	jobs, batchRows, batches, filterRows, selected  float64
}

// calibrate runs every read template of the mix once on one session,
// alone, and reads the database's counters and the obs counters around
// each run. Alone and after the set-up has settled, the counts repeat
// exactly from run to run; the *_per_op metrics weight them by the mix.
func calibrate(sys system, sess session, weights map[string]int, g *gen, chk *recorder) map[string]cost {
	var names []string
	for name := range weights {
		if name != "insert" && name != "delete" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	d := sys.database()
	out := map[string]cost{}
	for _, name := range names {
		s := g.stmtFor(name)
		d.ResetStats()
		before := scrape()
		chk.do(sess, g, s, time.Time{}, false)
		st := d.Stats()
		dl := delta(before, scrape())
		out[name] = cost{
			tuples: float64(st.TuplesRead), probes: float64(st.IndexProbes), cmps: float64(st.Comparisons),
			refs: float64(st.RefTuples), peakRefs: float64(st.PeakRefTuples), hashJoins: float64(st.HashJoins),
			jobs:       dl["pascal_sched_jobs_total"],
			batchRows:  dl["pascal_engine_batch_rows_total"],
			batches:    dl["pascal_engine_batch_batches_total"],
			filterRows: dl["pascal_engine_batch_filter_rows_total"],
			selected:   dl["pascal_engine_batch_selected_rows_total"],
		}
	}
	return out
}

// weighted is the mix-weighted mean cost of one statement; writes cost
// nothing in these units.
func weighted(costs map[string]cost, m *mix) cost {
	var w cost
	for name, c := range costs {
		s := m.share(name)
		w.tuples += s * c.tuples
		w.probes += s * c.probes
		w.cmps += s * c.cmps
		w.refs += s * c.refs
		w.hashJoins += s * c.hashJoins
		w.jobs += s * c.jobs
		w.batchRows += s * c.batchRows
		w.batches += s * c.batches
		w.filterRows += s * c.filterRows
		w.selected += s * c.selected
		if c.peakRefs > w.peakRefs {
			w.peakRefs = c.peakRefs
		}
	}
	return w
}
