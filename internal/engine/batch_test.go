package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// setBatchSize shrinks the batch capacity for the duration of a test so
// batch-boundary and tail-bitmap edge cases get exercised with small
// relations, restoring the default afterwards.
func setBatchSize(t *testing.T, n int) {
	t.Helper()
	old := batchSize
	batchSize = n
	t.Cleanup(func() { batchSize = old })
}

// defaultBatchSize is batchSize as the package ships it.
var defaultBatchSize = batchSize

type baselineKey struct {
	db      *relation.DB
	sel     *calculus.Selection
	version uint64
}

// baselines memoizes the oracle's result per selection and database
// state: it is the slowest step of evalChecked, and callers sweep batch
// sizes and options it does not depend on.
var baselines = map[baselineKey]string{}

// evalChecked runs one selection with opts at the current batch size
// and asserts two oracles: the result equals the tuple-substitution
// baseline's, and the counter fingerprint equals that of a reference
// run with the same options at the default batch size and Parallelism
// 1 — counters may depend on neither. It returns the run's result and
// counters.
func evalChecked(t *testing.T, db *relation.DB, sel *calculus.Selection, opts Options) (*relation.Relation, *stats.Counters) {
	t.Helper()
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	key := baselineKey{db, sel, db.Version()}
	wantKey, ok := baselines[key]
	if !ok {
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		wantKey = resultKey(want)
		baselines[key] = wantKey
	}
	ctx := context.Background()
	st := &stats.Counters{}
	got, err := New(db, st).Eval(ctx, checked, info, opts)
	if err != nil {
		t.Fatalf("batch size %d, parallelism %d: %v", batchSize, opts.Parallelism, err)
	}
	if resultKey(got) != wantKey {
		t.Fatalf("batch size %d, parallelism %d: result (%d rows) != baseline", batchSize, opts.Parallelism, got.Len())
	}
	size := batchSize
	batchSize = defaultBatchSize
	refSt := &stats.Counters{}
	refOpts := opts
	refOpts.Parallelism = 1
	_, err = New(db, refSt).Eval(ctx, checked, info, refOpts)
	batchSize = size
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if gf, rf := st.Fingerprint(), refSt.Fingerprint(); gf != rf {
		t.Fatalf("batch size %d, parallelism %d: counter fingerprint diverges from the reference run\ngot: %s\nref: %s", size, opts.Parallelism, gf, rf)
	}
	return got, st
}

// empnoSelection selects employee names by a single comparison on the
// unique employee number — the shape whose selection vector density is
// directly controlled by op and the constant.
func empnoSelection(op value.CmpOp, n int64) *calculus.Selection {
	return &calculus.Selection{
		Proj: []calculus.Field{{Var: "e", Col: "ename"}},
		Free: []calculus.Decl{{Var: "e", Range: &calculus.RangeExpr{Rel: "employees"}}},
		Pred: &calculus.Cmp{L: calculus.Field{Var: "e", Col: "enr"}, Op: op, R: calculus.Const{Val: value.Int(n)}},
	}
}

// TestBatchSelectionVectorDensityExtremes pins the all-one and all-zero
// selection vector cases: a predicate every row passes, one no row
// passes, and a one-row needle — across batch sizes that land the
// relation on, under, and over word and batch boundaries.
func TestBatchSelectionVectorDensityExtremes(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(70)) // 70 rows: crosses one 64-bit word
	for _, bs := range []int{1, 3, 64, 70, 1024} {
		bs := bs
		t.Run(fmt.Sprintf("bs%d", bs), func(t *testing.T) {
			setBatchSize(t, bs)
			allOne, _ := evalChecked(t, db, empnoSelection(value.OpGe, 0), Options{Strategies: AllStrategies})
			if allOne.Len() != db.MustRelation("employees").Len() {
				t.Fatalf("all-one selection kept %d of %d rows", allOne.Len(), db.MustRelation("employees").Len())
			}
			allZero, _ := evalChecked(t, db, empnoSelection(value.OpLt, 0), Options{Strategies: AllStrategies})
			if allZero.Len() != 0 {
				t.Fatalf("all-zero selection kept %d rows", allZero.Len())
			}
			needle, _ := evalChecked(t, db, empnoSelection(value.OpEq, 1), Options{Strategies: AllStrategies})
			if needle.Len() != 1 {
				t.Fatalf("needle selection kept %d rows, want 1", needle.Len())
			}
		})
	}
}

// TestBatchEmptyRelations runs against empty base relations: zero
// batches must flow, and results must stay equal to the baseline's.
func TestBatchEmptyRelations(t *testing.T) {
	setBatchSize(t, 7)
	db := relation.NewDB()
	if err := workload.DefineSchema(db, workload.DefaultConfig(10)); err != nil {
		t.Fatal(err)
	}
	res, _ := evalChecked(t, db, empnoSelection(value.OpGe, 0), Options{Strategies: AllStrategies})
	if res.Len() != 0 {
		t.Fatalf("empty relation produced %d rows", res.Len())
	}
	res, _ = evalChecked(t, db, workload.SampleSelection(), Options{Strategies: AllStrategies})
	if res.Len() != 0 {
		t.Fatalf("empty university produced %d rows", res.Len())
	}
}

// TestBatchBoundaryMatrix sweeps the paper's sample queries across odd
// batch sizes (including sizes that split every quantified scan at
// non-multiple-of-64 offsets) and every strategy rung, serial and
// parallel — results and counters under boundary stress.
func TestBatchBoundaryMatrix(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(17))
	sels := []*calculus.Selection{
		workload.SampleSelection(),
		workload.SubexprSelection(),
		workload.DisjunctiveSelection(),
		workload.JoinHeavySelection(),
	}
	for _, bs := range []int{3, 65} {
		for _, sel := range sels {
			for _, strat := range []Strategy{0, S1 | S2, AllStrategies} {
				for _, par := range []int{1, 4} {
					setBatchSize(t, bs)
					evalChecked(t, db, sel, Options{Strategies: strat, Parallelism: par})
				}
			}
		}
	}
}

// TestBatchCursorStreamingDedup streams a compiled plan's rows through
// the cursor with a batch size that fractures every scan, checking the
// streamed multiset (including construction-phase dedup) against the
// baseline's result.
func TestBatchCursorStreamingDedup(t *testing.T) {
	setBatchSize(t, 5)
	db := workload.MustUniversity(workload.DefaultConfig(40))
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	seen := map[string]bool{}
	for cur.Next() {
		k := value.EncodeKey(cur.Row())
		if seen[k] {
			t.Fatalf("cursor yielded duplicate row %q across batch boundaries", k)
		}
		seen[k] = true
		keys = append(keys, k)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	sort.Strings(keys)

	want, err := baseline.Eval(checked, info, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(keys, "|"), resultKey(want); got != want {
		t.Fatalf("streamed rows != baseline result\nstreamed: %s\nbaseline: %s", got, want)
	}
}

// TestBatchSemiAtomColumnWise pins the column-wise strategy-4 atom: a
// derived atom with one dyadic term runs as a bulk predicate over its
// one column, so the remaining variable's scan materializes only that
// column, and the run matches the baseline's rows and the reference
// run's counters. The cases cover every form the value list resolves to:
// the =SOME / <>ALL sets, the min/max bounds of <, <=, > and >=, the
// singleton =ALL and <>SOME, the multi-value constants, and a spec
// resolved to a constant before any list is consulted; over integer,
// enumeration and string columns; at batch sizes that are not
// multiples of 64, serially and on sharded scans.
func TestBatchSemiAtomColumnWise(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(40))
	k := db.MustRelation("timetable").Tuples()[0][0] // an employee number present in timetable
	one := fmt.Sprintf("[EACH x IN timetable: x.tenr = %v]", k)
	// roles shares employees' status and name types, for atoms over an
	// enumeration and a string column.
	cat := db.Catalog()
	status, _ := cat.Type("statustype")
	name, _ := cat.Type("nametype")
	rnr, _ := cat.Type("enumbertype")
	roles, err := db.Create(schema.MustRelSchema("roles", []schema.Column{
		{Name: "rnr", Type: rnr}, {Name: "rstatus", Type: status}, {Name: "rname", Type: name},
	}, []string{"rnr"}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := roles.Insert([]value.Value{value.Int(int64(i)), value.Enum("statustype", i%3), value.String_(fmt.Sprintf("emp%06d", 3*i))}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		quant, col, pred string
	}{
		{"SOME t IN timetable (e.enr = t.tenr)", "enr", "x IN list"},
		{"ALL t IN timetable (e.enr <> t.tenr)", "enr", "x NOT IN list"},
		{"SOME t IN timetable (e.enr < t.tenr)", "enr", "x < "},
		{"SOME t IN timetable (e.enr <= t.tenr)", "enr", "x <= "},
		{"ALL t IN timetable (e.enr > t.tenr)", "enr", "x > "},
		{"ALL t IN timetable (e.enr >= t.tenr)", "enr", "x >= "},
		{"ALL t IN " + one + " (e.enr = t.tenr)", "enr", "x = "},
		{"SOME t IN " + one + " (e.enr <> t.tenr)", "enr", "x <> "},
		{"ALL t IN timetable (e.enr = t.tenr)", "enr", "always FALSE"},
		{"SOME t IN timetable (e.enr <> t.tenr)", "enr", "always TRUE"},
		{"SOME t IN timetable ((t.ttime < 0) AND (e.enr = t.tenr))", "enr", "resolved FALSE"},
		{"SOME r IN roles (e.estatus = r.rstatus)", "estatus", "x IN list"},
		{"ALL r IN roles (e.estatus >= r.rstatus)", "estatus", "x >= "},
		{"SOME r IN roles (e.ename = r.rname)", "ename", "x IN list"},
		{"ALL r IN roles (e.ename > r.rname)", "ename", "x > "},
	}
	ctx := context.Background()
	emp := db.MustRelation("employees").Schema()
	for _, bs := range []int{5, 67} {
		setBatchSize(t, bs)
		for _, c := range cases {
			sel, err := parser.ParseSelection("[<e.ename> OF EACH e IN employees: " + c.quant + "]")
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 3} {
				evalChecked(t, db, sel, Options{Strategies: AllStrategies, Parallelism: par})
			}

			checked, _, err := calculus.Check(sel, db.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Strategies: AllStrategies}
			e := New(db, nil)
			x, err := e.prepare(checked, opts)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.collectWithAdaptation(ctx, x, &stats.Counters{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.specRTs) != 1 {
				t.Fatalf("%s: %d strategy-4 specs, want 1", c.quant, len(p.specRTs))
			}
			for _, rt := range p.specRTs {
				got := fmt.Sprintf("resolved %v", strings.ToUpper(fmt.Sprint(rt.constVal)))
				if !rt.resolved {
					got = rt.pred.String()
				}
				if !strings.HasPrefix(got, c.pred) {
					t.Fatalf("%s: derived predicate %q, want %q", c.quant, got, c.pred)
				}
			}
			ci, _ := emp.ColIndex(c.col)
			for _, job := range p.jobs {
				if job.rel.Name() != "employees" {
					continue
				}
				if len(job.batchCols) != 1 || job.batchCols[0] != ci {
					t.Fatalf("%s: employees scan cols=%v, want only column %s (%d)", c.quant, job.batchCols, c.col, ci)
				}
			}
		}
	}
}

// TestBatchTupleListAtom covers the multi-dyadic strategy-4 atom, whose
// tuple list is tested against whole reconstructed rows: SOME and ALL
// over integer and string columns, and a spec resolved to a constant,
// at batch sizes that are not multiples of 64, serially and on sharded
// scans. The remaining variable's scan must read whole rows. No query
// of the enginetest matrix eliminates a quantifier with two dyadic
// terms, so cmps pins each query's comparison count here.
func TestBatchTupleListAtom(t *testing.T) {
	// 1100 employees and 2200 timetable entries: both scans clear the
	// 512-tuple shard threshold at least twice.
	db := workload.MustUniversity(workload.DefaultConfig(1100))
	cases := []struct {
		quant    string
		resolved bool
		rows     int
		cmps     int64
	}{
		{"SOME t IN timetable ((e.enr = t.tenr) AND (e.enr <> t.tcnr))", false, 950, 1052350},
		{"ALL t IN timetable ((e.enr <> t.tenr) AND (e.enr >= t.tcnr))", false, 80, 1073767},
		{"SOME p IN papers ((e.enr = p.penr) AND (e.ename <> p.ptitle))", false, 965, 1046482},
		{"SOME t IN timetable ((t.ttime < 0) AND (e.enr = t.tenr) AND (e.enr <> t.tcnr))", true, 0, 2200},
	}
	ctx := context.Background()
	for _, c := range cases {
		q := c.quant
		sel, err := parser.ParseSelection("[<e.ename> OF EACH e IN employees: " + q + "]")
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{5, 67} {
			setBatchSize(t, bs)
			for _, par := range []int{1, 3} {
				res, st := evalChecked(t, db, sel, Options{Strategies: AllStrategies, Parallelism: par})
				if res.Len() != c.rows || st.Comparisons != c.cmps {
					t.Fatalf("%s: %d rows and %d comparisons, want %d and %d", q, res.Len(), st.Comparisons, c.rows, c.cmps)
				}
			}
		}

		checked, _, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Strategies: AllStrategies, Parallelism: 3}
		e := New(db, nil)
		x, err := e.prepare(checked, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.collectWithAdaptation(ctx, x, &stats.Counters{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.specRTs) != 1 {
			t.Fatalf("%s: %d strategy-4 specs, want 1", q, len(p.specRTs))
		}
		for _, rt := range p.specRTs {
			if len(rt.spec.Dyadic) < 2 {
				t.Fatalf("%s: %d dyadic terms, want a tuple list", q, len(rt.spec.Dyadic))
			}
			if rt.resolved != c.resolved || (!rt.resolved && len(rt.tuples) == 0) {
				t.Fatalf("%s: resolved=%v with %d tuples, want resolved=%v", q, rt.resolved, len(rt.tuples), c.resolved)
			}
		}
		for _, job := range p.jobs {
			if n := len(p.jobShardSpans(job)); n < 2 {
				t.Fatalf("%s: %s scan splits into %d shards, want several", q, job.rel.Name(), n)
			}
			if job.rel.Name() == "employees" && job.batchCols != nil {
				t.Fatalf("%s: employees scan cols=%v, want whole rows", q, job.batchCols)
			}
		}
	}
}

// TestUncheckedTypeMismatchErrors hands the engine selections that
// calculus.Check would reject — comparisons across kinds or enum types —
// with the mismatch in a matrix term, an extended range filter and a
// strategy-4 spec's monadic term. The predicate compiler rejects each
// eagerly, so every strategy set returns that compile error, through
// Eval and through a compiled Plan, and none panics.
func TestUncheckedTypeMismatchErrors(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(20))
	cat := db.Catalog()
	enr, _ := cat.Type("enumbertype")
	name, _ := cat.Type("nametype")
	status, _ := cat.Type("statustype")
	day, _ := cat.Type("daytype")
	mixed, err := db.Create(schema.MustRelSchema("mixed", []schema.Column{
		{Name: "mnr", Type: enr}, {Name: "mname", Type: name},
		{Name: "mstatus", Type: status}, {Name: "mday", Type: day},
	}, []string{"mnr"}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := mixed.Insert([]value.Value{value.Int(int64(i)), value.String_(fmt.Sprintf("m%d", i)), value.Enum("statustype", i%4), value.Enum("daytype", i%5)}); err != nil {
			t.Fatal(err)
		}
	}
	f := func(v, col string) calculus.Field { return calculus.Field{Var: v, Col: col} }
	shapes := []struct {
		name string
		cmp  func(v string) *calculus.Cmp
	}{
		{"int vs string constant", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: f(v, "mnr"), Op: value.OpEq, R: calculus.Const{Val: value.String_("x")}}
		}},
		{"string constant vs int", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: calculus.Const{Val: value.String_("x")}, Op: value.OpLt, R: f(v, "mnr")}
		}},
		{"int vs bool constant", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: f(v, "mnr"), Op: value.OpNe, R: calculus.Const{Val: value.Bool(true)}}
		}},
		{"enum vs other enum constant", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: f(v, "mstatus"), Op: value.OpEq, R: calculus.Const{Val: value.Enum("daytype", 1)}}
		}},
		{"enum vs other enum field", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: f(v, "mstatus"), Op: value.OpLe, R: f(v, "mday")}
		}},
		{"int vs string field", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: f(v, "mnr"), Op: value.OpLt, R: f(v, "mname")}
		}},
		{"enum vs int field", func(v string) *calculus.Cmp {
			return &calculus.Cmp{L: f(v, "mstatus"), Op: value.OpEq, R: f(v, "mnr")}
		}},
	}
	// Each placement builds the unchecked selection around a term; the
	// variables' Info comes from checking the same shape with a
	// well-typed term.
	placements := []struct {
		name string
		sel  func(term func(v string) *calculus.Cmp) *calculus.Selection
	}{
		{"matrix", func(term func(string) *calculus.Cmp) *calculus.Selection {
			return &calculus.Selection{
				Proj: []calculus.Field{f("m", "mnr")},
				Free: []calculus.Decl{{Var: "m", Range: &calculus.RangeExpr{Rel: "mixed"}}},
				Pred: term("m"),
			}
		}},
		{"range filter", func(term func(string) *calculus.Cmp) *calculus.Selection {
			return &calculus.Selection{
				Proj: []calculus.Field{f("m", "mnr")},
				Free: []calculus.Decl{{Var: "m", Range: &calculus.RangeExpr{Rel: "mixed", FilterVar: "x", Filter: term("x")}}},
				Pred: &calculus.Lit{Val: true},
			}
		}},
		{"quantifier", func(term func(string) *calculus.Cmp) *calculus.Selection {
			return &calculus.Selection{
				Proj: []calculus.Field{f("e", "ename")},
				Free: []calculus.Decl{{Var: "e", Range: &calculus.RangeExpr{Rel: "employees"}}},
				Pred: &calculus.Quant{Var: "m", Range: &calculus.RangeExpr{Rel: "mixed"}, Body: &calculus.And{Fs: []calculus.Formula{
					term("m"),
					&calculus.Cmp{L: f("e", "enr"), Op: value.OpEq, R: f("m", "mnr")},
				}}},
			}
		}},
	}
	wellTyped := func(v string) *calculus.Cmp {
		return &calculus.Cmp{L: f(v, "mnr"), Op: value.OpGe, R: calculus.Const{Val: value.Int(1)}}
	}
	ctx := context.Background()
	for _, pl := range placements {
		_, info, err := calculus.Check(pl.sel(wellTyped), cat)
		if err != nil {
			t.Fatalf("%s: %v", pl.name, err)
		}
		for _, sh := range shapes {
			sel := pl.sel(sh.cmp)
			for _, strat := range []Strategy{0, S1, S1 | S2, S3, S4, AllStrategies, AllStrategies | SCNF} {
				for _, par := range []int{1, 3} {
					opts := Options{Strategies: strat, Parallelism: par}
					_, err := New(db, nil).Eval(ctx, sel, info, opts)
					if err == nil || !strings.Contains(err.Error(), "cannot compare") {
						t.Errorf("%s, %s, %s, parallelism %d: Eval returned %v, want a compile error", pl.name, sh.name, strat, par, err)
					}
					p, err := New(db, nil).Compile(sel, info, opts)
					if err == nil {
						_, err = p.Eval(ctx)
					}
					if err == nil || !strings.Contains(err.Error(), "cannot compare") {
						t.Errorf("%s, %s, %s, parallelism %d: compiled plan returned %v, want a compile error", pl.name, sh.name, strat, par, err)
					}
				}
			}
		}
	}
}
