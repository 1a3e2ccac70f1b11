package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

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

// evalBoth runs one selection on the vectorized path and on the forced
// tuple path with identical options and asserts bit-identical results
// and counter fingerprints. It returns the batch run's result.
func evalBoth(t *testing.T, db *relation.DB, sel *calculus.Selection, opts Options) *relation.Relation {
	t.Helper()
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stBatch := &stats.Counters{}
	opts.Exec = ExecAuto
	gotBatch, err := New(db, stBatch).Eval(ctx, checked, info, opts)
	if err != nil {
		t.Fatalf("batch path: %v", err)
	}
	stTuple := &stats.Counters{}
	opts.Exec = ExecTuple
	gotTuple, err := New(db, stTuple).Eval(ctx, checked, info, opts)
	if err != nil {
		t.Fatalf("tuple path: %v", err)
	}
	if bk, tk := resultKey(gotBatch), resultKey(gotTuple); bk != tk {
		t.Fatalf("batch result (%d rows) != tuple result (%d rows)", gotBatch.Len(), gotTuple.Len())
	}
	if bf, tf := stBatch.Fingerprint(), stTuple.Fingerprint(); bf != tf {
		t.Fatalf("counter fingerprints diverge\nbatch: %s\ntuple: %s", bf, tf)
	}
	return gotBatch
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
			allOne := evalBoth(t, db, empnoSelection(value.OpGe, 0), Options{Strategies: AllStrategies})
			if allOne.Len() != db.MustRelation("employees").Len() {
				t.Fatalf("all-one selection kept %d of %d rows", allOne.Len(), db.MustRelation("employees").Len())
			}
			allZero := evalBoth(t, db, empnoSelection(value.OpLt, 0), Options{Strategies: AllStrategies})
			if allZero.Len() != 0 {
				t.Fatalf("all-zero selection kept %d rows", allZero.Len())
			}
			needle := evalBoth(t, db, empnoSelection(value.OpEq, 1), Options{Strategies: AllStrategies})
			if needle.Len() != 1 {
				t.Fatalf("needle selection kept %d rows, want 1", needle.Len())
			}
		})
	}
}

// TestBatchEmptyRelations runs the differential pair against empty base
// relations: zero batches must flow, and results must stay identical.
func TestBatchEmptyRelations(t *testing.T) {
	setBatchSize(t, 7)
	db := relation.NewDB()
	if err := workload.DefineSchema(db, workload.DefaultConfig(10)); err != nil {
		t.Fatal(err)
	}
	res := evalBoth(t, db, empnoSelection(value.OpGe, 0), Options{Strategies: AllStrategies})
	if res.Len() != 0 {
		t.Fatalf("empty relation produced %d rows", res.Len())
	}
	res = evalBoth(t, db, workload.SampleSelection(), Options{Strategies: AllStrategies})
	if res.Len() != 0 {
		t.Fatalf("empty university produced %d rows", res.Len())
	}
}

// TestBatchBoundaryMatrix sweeps the paper's sample queries across odd
// batch sizes (including sizes that split every quantified scan at
// non-multiple-of-64 offsets) and every strategy rung, serial and
// parallel — the bit-identity contract under boundary stress.
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
					evalBoth(t, db, sel, Options{Strategies: strat, Parallelism: par})
				}
			}
		}
	}
}

// TestBatchCursorStreamingDedup streams a compiled plan's rows through
// the cursor with a batch size that fractures every scan, checking the
// streamed multiset (including construction-phase dedup) against the
// tuple path's materialized result.
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

	tup, err := New(db, nil).Eval(ctx, checked, info, Options{Strategies: AllStrategies, Exec: ExecTuple})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(keys, "|"), resultKey(tup); got != want {
		t.Fatalf("streamed batch rows != tuple-path result\nbatch: %s\ntuple: %s", got, want)
	}
}

// TestBatchJobsActuallyBatch guards the degrade seam from silently
// pinning everything to the tuple path: a plain monadic query must
// compile every scan job to batch form under ExecAuto and none under
// ExecTuple.
func TestBatchJobsActuallyBatch(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(20))
	checked, _, err := calculus.Check(empnoSelection(value.OpGe, 0), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ExecAuto, ExecTuple} {
		e := New(db, nil)
		opts := Options{Strategies: AllStrategies, Exec: mode}
		x, err := e.prepare(checked, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildPlan(x, db, &stats.Counters{}, opts.Strategies, planEstimator(opts), 1, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range p.jobs {
			if want := mode == ExecAuto; job.batch != want {
				t.Fatalf("mode %s: job over %s batch=%v, want %v", mode, job.rel.Name(), job.batch, want)
			}
		}
	}
}

// TestBatchSemiAtomColumnWise pins the column-wise strategy-4 atom: a
// derived atom with one dyadic term runs as a bulk predicate over its
// one column, so the remaining variable's scan materializes only that
// column, and the run stays bit-identical — rows and counters — to
// ExecTuple. The cases cover every form the value list resolves to:
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
				evalBoth(t, db, sel, Options{Strategies: AllStrategies, Parallelism: par})
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
				if !job.batch || len(job.batchCols) != 1 || job.batchCols[0] != ci {
					t.Fatalf("%s: employees scan batch=%v cols=%v, want only column %s (%d)", c.quant, job.batch, job.batchCols, c.col, ci)
				}
			}
		}
	}
}
