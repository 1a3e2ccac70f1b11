package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"pascalr"
	"pascalr/client"
	"pascalr/internal/obs"
	"pascalr/internal/server"
)

// spec fixes what one benchmark workload loads, how many times its
// set-up is repeated for the setup_s median, which statement mix each
// session sends, and whether requests arrive on a schedule (open loop)
// or back to back (closed loop).
type spec struct {
	name     string
	setups   int
	weights  map[string]int
	openLoop bool
	// readOnly workloads measure their writes after each window, by one
	// session alone, so the writes cannot disturb the reads.
	readOnly bool
	// reporting lists the templates session 1 sends exclusively, while
	// session 0 sends the rest of the mix; without it both sessions
	// send the whole mix.
	reporting map[string]bool
	open      func(env *env) (system, error)
}

// sessionWeights returns the mix each of the two sessions sends.
func (w spec) sessionWeights() []map[string]int {
	if w.reporting == nil {
		return []map[string]int{w.weights, w.weights}
	}
	split := []map[string]int{{}, {}}
	for name, wt := range w.weights {
		if w.reporting[name] {
			split[1][name] = wt
		} else {
			split[0][name] = wt
		}
	}
	return split
}

// sessionRates divides an offered rate between the sessions. The
// reporting session keeps its share of servedRate whatever the offered
// rate, as a report schedule would; session 0 carries the rest.
func (w spec) sessionRates(rate float64) []float64 {
	mixes := w.sessionWeights()
	total, reporting := 0, 0
	for _, wt := range w.weights {
		total += wt
	}
	for _, wt := range mixes[1] {
		reporting += wt
	}
	fixed := servedRate * float64(reporting) / float64(total)
	return []float64{rate - fixed, fixed}
}

// The mixes. Weights are chosen so that read_p50_ms falls inside one
// template's latency band, not on the edge between two, and read_p99_ms
// inside the slowest template's band.
var specs = map[string]spec{
	// Prepared paper queries over the memory backend: collection,
	// combination and construction do all the work.
	"analytic": {
		name:     "analytic",
		setups:   5,
		readOnly: true,
		weights: map[string]int{
			"band": 3, "example21": 2, "joinheavy_static": 1,
			"joinheavy_cost": 1, "disjunctive": 1, "example32": 1,
		},
		open: openAnalytic,
	},
	// Durable writes of fresh papers beside ad hoc selections and an
	// occasional Example 2.1 over SSTables: WAL, group commit, fsync,
	// spills, compaction, checkpoints, SSTable reads and the block cache.
	"durable-mixed": {
		name:   "durable-mixed",
		setups: 3,
		weights: map[string]int{
			"insert": 30, "delete": 15, "adhoc_employee": 25,
			"adhoc_timetable": 15, "adhoc_course": 13, "example21": 2,
		},
		open: openDurable,
	},
	// Open-loop traffic through the wire protocol against the in-memory
	// database: framing, session dispatch, fetch batching and decoding.
	// Connection 0 sends the short selections. Connection 1 is a
	// reporting client: it fetches the whole timetable through a
	// prepared statement (2% of the reads, so read_p99_ms falls inside
	// the fetch's band) and sends the writes, which queue behind a fetch
	// often enough (about 1 in 6) that write_p99_ms falls inside that
	// band too, above the millisecond stalls of a virtual machine.
	"served": {
		name:      "served",
		setups:    3,
		openLoop:  true,
		reporting: map[string]bool{"timetable": true, "insert": true, "delete": true},
		weights: map[string]int{
			"adhoc_employee": 350, "adhoc_timetable": 200, "adhoc_course": 136,
			"timetable": 14, "insert": 150, "delete": 150,
		},
		open: openServed,
	},
}

// env is what every set-up shares: the script that loads the data, and
// the directory durable databases live in.
type env struct {
	script  string
	workDir string
}

// system is one loaded database behind the interface its users call.
type system interface {
	database() *pascalr.Database
	// session opens one client session.
	session() (session, error)
	close() error
}

// session runs one statement and returns the rows it produced.
type session interface {
	run(ctx context.Context, s stmt) ([][]any, error)
	// serverTrace returns the server's trace of the last statement, or
	// nil in-process, where the program's spans nest under the benchmark's.
	serverTrace() (*obs.TraceJSON, error)
	close() error
}

// preparedSrc maps the templates that run as prepared statements to
// their text and compile options; every other read runs one-shot
// through the plan cache.
var preparedSrc = map[string]struct {
	src  string
	opts []pascalr.Option
}{
	"example21":        {qExample21, nil},
	"joinheavy_static": {qJoinHeavy, nil},
	"joinheavy_cost":   {qJoinHeavy, []pascalr.Option{pascalr.WithCostBased()}},
	"disjunctive":      {qDisjunctive, nil},
	"example32":        {qExample32, nil},
	"band":             {qBand, nil},
}

// memSystem is a database in memory, loaded with pascalr.Open, whose
// sessions run the paper queries as prepared statements.
type memSystem struct {
	d *pascalr.Database
}

func openAnalytic(e *env) (system, error) {
	d, err := pascalr.Open(e.script)
	if err != nil {
		return nil, err
	}
	// Scans and per-conjunction joins run on the scheduler with two
	// workers, one per core of the machine the benchmark was sized on,
	// so the sched layer does work here.
	d.SetParallelism(2)
	settle()
	return &memSystem{d: d}, nil
}

func (m *memSystem) database() *pascalr.Database { return m.d }
func (m *memSystem) close() error                { return m.d.Close() }

func (m *memSystem) session() (session, error) {
	s := &inproc{d: m.d, prepared: map[string]*pascalr.Stmt{}}
	for name, p := range preparedSrc {
		st, err := m.d.Prepare(p.src, p.opts...)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		s.prepared[name] = st
	}
	return s, nil
}

// inproc is a session calling the public pascalr API in-process.
type inproc struct {
	d        *pascalr.Database
	prepared map[string]*pascalr.Stmt
}

func (s *inproc) run(ctx context.Context, st stmt) ([][]any, error) {
	if st.write {
		return nil, s.d.Exec(st.src)
	}
	var res *pascalr.Result
	var err error
	if p := s.prepared[st.template]; p != nil {
		res, err = p.Query(ctx)
	} else {
		res, err = s.d.QueryContext(ctx, st.src)
	}
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}

func (s *inproc) serverTrace() (*obs.TraceJSON, error) { return nil, nil }
func (s *inproc) close() error                         { return nil }

// diskSystem is a durable database: default options (SyncAlways WAL,
// 4,096-entry memtables, 4 MiB checkpoint trigger, 8 MiB block cache),
// loaded with one Exec and checkpointed so every relation starts in
// SSTables.
type diskSystem struct {
	d   *pascalr.Database
	dir string
}

func openDurable(e *env) (system, error) {
	dir, err := os.MkdirTemp(e.workDir, "durable-")
	if err != nil {
		return nil, err
	}
	d, err := pascalr.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	if err := d.Exec(e.script); err != nil {
		d.Close()
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		d.Close()
		return nil, err
	}
	settle()
	return &diskSystem{d: d, dir: dir}, nil
}

func (s *diskSystem) database() *pascalr.Database { return s.d }
func (s *diskSystem) session() (session, error)   { return &inproc{d: s.d}, nil }

// reopen closes the database and opens it again from its files.
func (s *diskSystem) reopen() error {
	err := s.d.Close()
	s.d = nil
	if err != nil {
		return err
	}
	if s.d, err = pascalr.OpenDir(s.dir); err != nil {
		return err
	}
	settle()
	return nil
}

func (s *diskSystem) close() error {
	var err error
	if s.d != nil {
		err = s.d.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// servedSystem is internal/server on a loopback port over an in-memory
// database; sessions are client connections.
type servedSystem struct {
	d   *pascalr.Database
	srv *server.Server
}

func openServed(e *env) (system, error) {
	d, err := pascalr.Open(e.script)
	if err != nil {
		return nil, err
	}
	settle()
	srv := server.New(d, server.Config{
		Addr:   "127.0.0.1:0",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := srv.Start(); err != nil {
		d.Close()
		return nil, err
	}
	return &servedSystem{d: d, srv: srv}, nil
}

func (s *servedSystem) database() *pascalr.Database { return s.d }

func (s *servedSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx) // closes the database too
}

func (s *servedSystem) session() (session, error) {
	c, err := client.Dial(s.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	st, err := c.Prepare(qTimetable, client.Options{})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &remote{c: c, prepared: map[string]*client.Stmt{"timetable": st}}, nil
}

// remote is a session over one client connection.
type remote struct {
	c        *client.Conn
	prepared map[string]*client.Stmt
}

func (r *remote) run(ctx context.Context, st stmt) ([][]any, error) {
	if st.write {
		return nil, r.c.Exec(st.src)
	}
	var rows [][]any
	if p := r.prepared[st.template]; p != nil {
		cur, err := p.Execute()
		if err != nil {
			return nil, err
		}
		for cur.Next() {
			rows = append(rows, cur.Values())
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
	} else {
		// A traced statement names the server-side trace after the
		// benchmark's, so the two span trees correlate.
		res, err := r.c.Query(st.src, client.Options{TraceID: obs.TraceFrom(ctx).ID()})
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	}
	return rows, nil
}

func (r *remote) serverTrace() (*obs.TraceJSON, error) {
	js, err := r.c.TraceLastQuery()
	if err != nil {
		return nil, err
	}
	var tj obs.TraceJSON
	if err := json.Unmarshal([]byte(js), &tj); err != nil {
		return nil, fmt.Errorf("server trace: %w", err)
	}
	return &tj, nil
}

func (r *remote) close() error { return r.c.Close() }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
