package engine

import (
	"context"
	"sort"
	"sync"

	"pascalr/internal/calculus"
	"pascalr/internal/colbatch"
	"pascalr/internal/optimizer"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"

	"fmt"
)

// The collection path. Every scan job materializes columnar batches
// (internal/colbatch): predicates run as bulk operations over whole
// columns, producing selection bitmaps combined with bitwise AND/OR,
// and only surviving rows reach the per-row structure builders.
//
// The counter discipline is the paper's per-element cost model, and the
// same one the parallel scans follow: a comparison over a selection of
// k rows counts k comparisons, a chain of predicates evaluates (and
// counts) predicate j only over the rows predicates 0..j-1 kept, and
// row-only predicates (multi-dyadic strategy-4 atoms) run against
// reconstructed rows exactly on the selected positions. Counters
// therefore depend on neither the batch size nor the shard layout;
// enginetest pins them per query in testdata/fingerprints.golden.

// batchSize is the row capacity of one columnar batch. A variable, not
// a constant, so tests shrink it to stress batch-boundary and
// non-multiple-of-64 edge cases.
var batchSize = 1024

// batchPred evaluates one predicate in bulk over a batch, clearing the
// selection bits of rows that fail. run must count into st each
// comparison it evaluates, on selected rows only, and must not keep
// mutable state across calls — compiled predicates are shared by
// concurrent shard tasks. cols lists the column indexes run reads
// (all marks whole-row access instead); the scan materializes only the
// union of its tasks' footprints into the batch — the projection
// pushdown of the vectorized path.
type batchPred struct {
	run  func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error
	cols []int
	all  bool
}

// unionPredCols merges the column footprints of a predicate chain;
// all=true swallows everything (some predicate reads whole rows).
func unionPredCols(chains ...[]batchPred) ([]int, bool) {
	seen := map[int]bool{}
	cols := []int{}
	for _, preds := range chains {
		for _, p := range preds {
			if p.all {
				return nil, true
			}
			for _, c := range p.cols {
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
		}
	}
	return cols, false
}

// evalBatchPreds applies a predicate chain to sel: predicate j sees
// only the rows predicates 0..j-1 kept, so a row's evaluation (and
// counting) short-circuits at its first failing predicate.
func evalBatchPreds(preds []batchPred, b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
	for _, p := range preds {
		if sel.Empty() {
			return nil // nothing left to evaluate (or count)
		}
		if err := p.run(b, sel, st); err != nil {
			return err
		}
	}
	return nil
}

// batchConstPred compiles "col[ci] op rhs" into a bulk predicate.
// Int-backed columns run the unboxed FilterOrdBits kernel over the
// batch's raw ordinal vector: the column's kind is known from the
// schema, so the constant is type-checked here, at compile time, and
// no per-row kind dispatch remains. A mismatched constant is a compile
// error: calculus.Check rejects such a query, so only an unchecked
// selection reaches it. String columns keep the boxed FilterBits path.
func batchConstPred(ci int, op value.CmpOp, rhs value.Value, sch *schema.RelSchema) (batchPred, error) {
	k := sch.Cols[ci].Type.ValueKind()
	if !value.OrdKind(k) {
		return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			st.CountComparisons(sel.Count())
			return op.FilterBits(b.Vals(ci), rhs, sel.Words())
		}}, nil
	}
	if rhs.Kind() != k {
		return batchPred{}, fmt.Errorf("engine: cannot compare %s column %s with %s constant", k, sch.Cols[ci].Name, rhs.Kind())
	}
	if k == value.KindEnum && rhs.EnumType() != sch.Cols[ci].Type.Name {
		return batchPred{}, fmt.Errorf("engine: cannot compare enum %s column %s with enum %s constant", sch.Cols[ci].Type.Name, sch.Cols[ci].Name, rhs.EnumType())
	}
	r := rhs.Ord()
	return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		st.CountComparisons(sel.Count())
		op.FilterOrdBits(b.Ords(ci), r, sel.Words())
		return nil
	}}, nil
}

// compileBatchMonadic compiles a monadic join term over v into a bulk
// predicate. Field-versus-constant terms — the common case — go
// through batchConstPred, one (compile-time) kind dispatch per column
// instead of per row; field-versus-field terms run a per-selected-row
// loop, unboxed when both columns are int-backed.
func compileBatchMonadic(c *calculus.Cmp, v string, sch *schema.RelSchema) (batchPred, error) {
	colIdx := func(f calculus.Field) (int, error) {
		if f.Var != v {
			return 0, fmt.Errorf("engine: operand %s is not over variable %s", f, v)
		}
		ci, ok := sch.ColIndex(f.Col)
		if !ok {
			return 0, fmt.Errorf("engine: relation %s has no component %s", sch.Name, f.Col)
		}
		return ci, nil
	}
	op := c.Op
	lc, lConst := c.L.(calculus.Const)
	lf, lField := c.L.(calculus.Field)
	rc, rConst := c.R.(calculus.Const)
	rf, rField := c.R.(calculus.Field)
	switch {
	case lField && rConst:
		ci, err := colIdx(lf)
		if err != nil {
			return batchPred{}, err
		}
		return batchConstPred(ci, op, rc.Val, sch)
	case lConst && rField:
		ci, err := colIdx(rf)
		if err != nil {
			return batchPred{}, err
		}
		// const op col[i]  ⇔  col[i] flip(op) const
		return batchConstPred(ci, op.Flip(), lc.Val, sch)
	case lField && rField:
		li, err := colIdx(lf)
		if err != nil {
			return batchPred{}, err
		}
		ri, err := colIdx(rf)
		if err != nil {
			return batchPred{}, err
		}
		lk, rk := sch.Cols[li].Type.ValueKind(), sch.Cols[ri].Type.ValueKind()
		if value.OrdKind(lk) || value.OrdKind(rk) {
			// Same compile-time discipline as batchConstPred: a kind or
			// enum-type mismatch is a compile error.
			if lk != rk {
				return batchPred{}, fmt.Errorf("engine: cannot compare %s column %s with %s column %s", lk, sch.Cols[li].Name, rk, sch.Cols[ri].Name)
			}
			if lk == value.KindEnum && sch.Cols[li].Type.Name != sch.Cols[ri].Type.Name {
				return batchPred{}, fmt.Errorf("engine: cannot compare enum %s column %s with enum %s column %s", sch.Cols[li].Type.Name, sch.Cols[li].Name, sch.Cols[ri].Type.Name, sch.Cols[ri].Name)
			}
			return batchPred{cols: []int{li, ri}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
				st.CountComparisons(sel.Count())
				lcol, rcol := b.Ords(li), b.Ords(ri)
				return sel.Filter(func(i int) (bool, error) {
					return op.HoldsOrd(lcol[i], rcol[i]), nil
				})
			}}, nil
		}
		return batchPred{cols: []int{li, ri}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			st.CountComparisons(sel.Count())
			lcol, rcol := b.Vals(li), b.Vals(ri)
			return sel.Filter(func(i int) (bool, error) {
				return op.Apply(lcol[i], rcol[i])
			})
		}}, nil
	case lConst && rConst:
		lv, rv := lc.Val, rc.Val
		return batchPred{run: func(_ *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			n := sel.Count()
			if n == 0 {
				return nil
			}
			st.CountComparisons(n)
			ok, err := op.Apply(lv, rv)
			if err != nil {
				return err
			}
			if !ok {
				sel.ClearAll(sel.Len())
			}
			return nil
		}}, nil
	default:
		return batchPred{}, fmt.Errorf("engine: unresolved operand in %s", c)
	}
}

// compileBatchFilter compiles a quantifier-free filter formula over the
// filter variable fv (which denotes the scanned tuple) into a bulk
// predicate with short-circuit evaluation (and counting) per row: And
// chains filter sequentially, Or evaluates disjunct k only over rows no
// earlier disjunct admitted, Not evaluates its operand over every row
// reaching it.
func compileBatchFilter(f calculus.Formula, fv string, sch *schema.RelSchema) (batchPred, error) {
	switch g := f.(type) {
	case nil:
		return batchPred{}, fmt.Errorf("engine: nil filter formula")
	case *calculus.Lit:
		val := g.Val
		return batchPred{run: func(_ *colbatch.Batch, sel *colbatch.Bitmap, _ *stats.Counters) error {
			if !val {
				sel.ClearAll(sel.Len())
			}
			return nil
		}}, nil
	case *calculus.Cmp:
		return compileBatchMonadic(g, fv, sch)
	case *calculus.Not:
		sub, err := compileBatchFilter(g.F, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		return batchPred{cols: sub.cols, all: sub.all, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			var tmp colbatch.Bitmap
			tmp.CopyFrom(sel)
			if err := sub.run(b, &tmp, st); err != nil {
				return err
			}
			sel.AndNot(&tmp)
			return nil
		}}, nil
	case *calculus.And:
		subs, err := compileBatchFilters(g.Fs, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		cols, all := unionPredCols(subs)
		return batchPred{cols: cols, all: all, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			return evalBatchPreds(subs, b, sel, st)
		}}, nil
	case *calculus.Or:
		subs, err := compileBatchFilters(g.Fs, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		cols, all := unionPredCols(subs)
		return batchPred{cols: cols, all: all, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			var acc, remaining, m colbatch.Bitmap
			acc.ClearAll(sel.Len())
			remaining.CopyFrom(sel)
			for _, s := range subs {
				if remaining.Empty() {
					break
				}
				m.CopyFrom(&remaining)
				if err := s.run(b, &m, st); err != nil {
					return err
				}
				acc.Or(&m)
				remaining.AndNot(&m)
			}
			sel.CopyFrom(&acc)
			return nil
		}}, nil
	default:
		return batchPred{}, fmt.Errorf("engine: quantifier inside range filter")
	}
}

func compileBatchFilters(fs []calculus.Formula, fv string, sch *schema.RelSchema) ([]batchPred, error) {
	out := make([]batchPred, len(fs))
	for i, f := range fs {
		p, err := compileBatchFilter(f, fv, sch)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// rangeBatchPredsFor compiles v's range filter; nil when the range is
// not extended.
func (p *plan) rangeBatchPredsFor(v string) ([]batchPred, error) {
	node := p.vars[v]
	if !node.rng.Extended() {
		return nil, nil
	}
	bp, err := compileBatchFilter(node.rng.Filter, node.rng.FilterVar, node.sch)
	if err != nil {
		return nil, err
	}
	return []batchPred{bp}, nil
}

// compileBatchAtoms compiles monadic atoms over v: plain comparisons
// and derived strategy-4 atoms alike (compileBatchSemiAtom).
func (p *plan) compileBatchAtoms(v string, atoms []optimizer.Atom) ([]batchPred, error) {
	node := p.vars[v]
	out := make([]batchPred, 0, len(atoms))
	for _, a := range atoms {
		if a.Cmp != nil {
			bp, err := compileBatchMonadic(a.Cmp, v, node.sch)
			if err != nil {
				return nil, err
			}
			out = append(out, bp)
			continue
		}
		rt, ok := p.specRTs[a.Semi.Spec]
		if !ok {
			return nil, fmt.Errorf("engine: derived atom %s references unplanned spec", a)
		}
		bp, err := compileBatchSemiAtom(a.Semi, node.sch, rt)
		if err != nil {
			return nil, err
		}
		out = append(out, bp)
	}
	return out, nil
}

// compileBatchSemiAtom compiles a derived strategy-4 atom over vm. It
// reads rt only at run time, when the eliminated variable's scan has
// resolved it, and counts one comparison per selected row while a
// derived predicate decides, none for a resolved constant. A
// constant-only or single-dyadic atom runs column-wise over its one
// column; a multi-dyadic atom tests its tuple list against
// reconstructed rows (compileTupleListAtom).
func compileBatchSemiAtom(sa *optimizer.SemiAtom, sch *schema.RelSchema, rt *specRuntime) (batchPred, error) {
	if len(sa.Spec.Dyadic) > 1 {
		return compileTupleListAtom(sa, sch, rt)
	}
	if sa.Spec.ConstOnly() {
		return batchPred{run: func(_ *colbatch.Batch, sel *colbatch.Bitmap, _ *stats.Counters) error {
			if !rt.resolved {
				return fmt.Errorf("engine: spec %d used before its scan finished", sa.Spec.ID)
			}
			if !rt.constVal {
				sel.ClearAll(sel.Len())
			}
			return nil
		}}, nil
	}
	ci, ok := sch.ColIndex(sa.Spec.Dyadic[0].VmCol)
	if !ok {
		return batchPred{}, fmt.Errorf("engine: relation %s has no component %s", sch.Name, sa.Spec.Dyadic[0].VmCol)
	}
	k, enum := sch.Cols[ci].Type.ValueKind(), ""
	if k == value.KindEnum {
		enum = sch.Cols[ci].Type.Name
	}
	all := sa.Spec.All
	return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		keep := all // an unresolved atom with no predicate yet: the empty tuple list's answer
		switch {
		case rt.resolved:
			keep = rt.constVal
		case rt.pred != nil:
			st.CountComparisons(sel.Count())
			if value.OrdKind(k) {
				rt.pred.FilterOrdBits(k, enum, b.Ords(ci), sel.Words())
				return nil
			}
			col := b.Vals(ci)
			return sel.Filter(func(i int) (bool, error) { return rt.pred.Test(col[i]), nil })
		}
		if !keep {
			sel.ClearAll(sel.Len())
		}
		return nil
	}}, nil
}

// compileTupleListAtom compiles a multi-dyadic strategy-4 atom: each
// selected row, reconstructed whole in ascending position order, is
// tested against the spec's list of distinct projected vn tuples. A
// tuple is compared term by term and counts one comparison per term
// evaluated, stopping at its first failing term; the list scan stops at
// the first tuple that decides the quantifier (a match for SOME, a
// mismatch for ALL).
func compileTupleListAtom(sa *optimizer.SemiAtom, sch *schema.RelSchema, rt *specRuntime) (batchPred, error) {
	cols := make([]int, len(sa.Spec.Dyadic))
	ops := make([]value.CmpOp, len(sa.Spec.Dyadic))
	for i, d := range sa.Spec.Dyadic {
		ci, ok := sch.ColIndex(d.VmCol)
		if !ok {
			return batchPred{}, fmt.Errorf("engine: relation %s has no component %s", sch.Name, d.VmCol)
		}
		cols[i], ops[i] = ci, d.Op
	}
	all := sa.Spec.All
	return batchPred{all: true, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		if rt.resolved {
			if !rt.constVal {
				sel.ClearAll(sel.Len())
			}
			return nil
		}
		row := make([]value.Value, b.NumCols())
		return sel.Filter(func(i int) (bool, error) {
			b.Row(i, row)
			for _, vnTup := range rt.tuples {
				match := true
				for j, op := range ops {
					st.CountComparisons(1)
					ok, err := op.Apply(row[cols[j]], vnTup[j])
					if err != nil {
						return false, err
					}
					if !ok {
						match = false
						break
					}
				}
				if match != all {
					return match, nil
				}
			}
			return all, nil
		})
	}}, nil
}

func (t *rangeTask) batchCols() ([]int, bool) { return unionPredCols(t.preds) }

func (t *rangeTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalBatchPreds(t.preds, b, sel, st); err != nil {
		return 0, err
	}
	n := 0
	sel.Do(func(i int) bool {
		t.refs = append(t.refs, b.Ref(i))
		n++
		return true
	})
	return n, nil
}

func (t *slTask) batchCols() ([]int, bool) { return unionPredCols(t.rangePreds, t.spec.preds) }

func (t *slTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalBatchPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	if err := evalBatchPreds(t.spec.preds, b, sel, st); err != nil {
		return 0, err
	}
	n := 0
	sel.Do(func(i int) bool {
		t.out.Add(b.Ref(i))
		n++
		return true
	})
	return n, nil
}

func (t *ixTask) batchCols() ([]int, bool) {
	cols, all := unionPredCols(t.rangePreds)
	if all {
		return nil, true
	}
	return append(cols, t.spec.colIdx), false
}

func (t *ixTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalBatchPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	n := 0
	ci := t.spec.colIdx
	sel.Do(func(i int) bool {
		t.out.Add(b.ColVal(ci, i), b.Ref(i))
		n++
		return true
	})
	return n, nil
}

func (t *groupTask) batchCols() ([]int, bool) {
	cols, all := unionPredCols(t.rangePreds, t.grp.preds)
	if all {
		return nil, true
	}
	for _, pr := range t.grp.probes {
		cols = append(cols, pr.probeCol)
	}
	return cols, false
}

func (t *groupTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalBatchPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	if err := evalBatchPreds(t.grp.preds, b, sel, st); err != nil {
		return 0, err
	}
	if t.matchBuf == nil {
		t.matchBuf = make([][]value.Value, len(t.grp.probes))
	}
	n := 0
	sel.Do(func(i int) bool {
		n++
		for pi := range t.grp.probes {
			pr := &t.grp.probes[pi]
			t.matchBuf[pi] = t.matchBuf[pi][:0]
			pr.index.probe(t.p, st, pr.op, b.ColVal(pr.probeCol, i), func(r value.Value) {
				t.matchBuf[pi] = append(t.matchBuf[pi], r)
			})
			if t.grp.mutual && len(t.matchBuf[pi]) == 0 {
				return true // another probe failed: suppress all pairs (4.2)
			}
		}
		for pi := range t.grp.probes {
			for _, r := range t.matchBuf[pi] {
				t.outs[pi].Add(b.Ref(i), r)
			}
		}
		return true
	})
	return n, nil
}

// batchCols: a tuple list (several dyadic terms) projects whole rows;
// a value list reads only its one dyadic column.
func (t *specTask) batchCols() ([]int, bool) {
	if len(t.dyCols) > 1 {
		return nil, true
	}
	cols, all := unionPredCols(t.rangePreds, t.monPreds)
	if all {
		return nil, true
	}
	return append(cols, t.dyCols...), false
}

func (t *specTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalBatchPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	var mon colbatch.Bitmap
	mon.CopyFrom(sel)
	if err := evalBatchPreds(t.monPreds, b, &mon, st); err != nil {
		return 0, err
	}
	n := 0
	if len(t.dyCols) > 1 {
		row := make([]value.Value, b.NumCols())
		sel.Do(func(i int) bool {
			b.Row(i, row)
			t.rt.addTuple(row, mon.Has(i), t.dyCols)
			n++
			return true
		})
		return n, nil
	}
	sel.Do(func(i int) bool {
		if t.rt.admit(mon.Has(i)) && t.rt.vl != nil {
			t.rt.vl.Add(b.ColVal(t.dyCols[0], i))
		}
		n++
		return true
	})
	return n, nil
}

// finalizeBatchJobs computes each scan job's column mask — the union
// of its tasks' footprints, sorted for a deterministic materialization
// order — so the scan copies only the columns some task actually reads
// (nil = whole rows).
func (p *plan) finalizeBatchJobs() {
	for _, job := range p.jobs {
		seen := map[int]bool{}
		cols, all := []int{}, false
		for _, t := range job.tasks {
			tc, ta := t.batchCols()
			if ta {
				all = true
				break
			}
			for _, c := range tc {
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
		}
		if all {
			continue
		}
		sort.Ints(cols)
		job.batchCols = cols
	}
}

// batchPools recycles columnar batches across scans and executions,
// one sync.Pool per column count: the buffers are the dominant
// per-execution allocation of the vectorized path (cols × batchSize
// values), and without reuse the GC pressure erases the
// bulk-evaluation win on repeated queries. Keying by width keeps a
// plan that scans relations of different widths from dropping every
// pooled batch; a batch whose capacity no longer matches (a test shrank
// batchSize) is dropped and a fresh one allocated.
var batchPools sync.Map // column count -> *sync.Pool

func batchPool(ncols int) *sync.Pool {
	if p, ok := batchPools.Load(ncols); ok {
		return p.(*sync.Pool)
	}
	p, _ := batchPools.LoadOrStore(ncols, new(sync.Pool))
	return p.(*sync.Pool)
}

func getBatch(ncols int) *colbatch.Batch {
	if v := batchPool(ncols).Get(); v != nil {
		if b := v.(*colbatch.Batch); b.Cap() == batchSize {
			return b
		}
	}
	return colbatch.New(ncols, batchSize)
}

func putBatch(b *colbatch.Batch) {
	b.Reset()
	batchPool(b.NumCols()).Put(b)
}

// scanSlotRangeBatch drives the given tasks over one slot range of the
// job's relation — a full scan, or one shard of a split scan: fill a
// batch, run every task's bulk predicate chain over it, flush, repeat.
// Cancellation is checked before the scan and per batch, the final
// partial batch included.
func (p *plan) scanSlotRangeBatch(ctx context.Context, job *scanJob, tasks []scanTask, st *stats.Counters, lo, hi int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b := getBatch(len(job.rel.Schema().Cols))
	defer putBatch(b)
	cols := job.batchCols
	var sel colbatch.Bitmap
	flush := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := b.Len()
		kept := int64(0)
		for _, t := range tasks {
			sel.SetAll(rows)
			n, err := t.processBatch(b, &sel, st)
			if err != nil {
				return err
			}
			kept += int64(n)
		}
		job.batches.Add(1)
		mBatchBatches.Inc()
		mBatchRows.Add(int64(rows))
		mBatchFilterRows.Add(int64(rows) * int64(len(tasks)))
		mBatchSelectedRows.Add(kept)
		hBatchSizeRows.Observe(int64(rows))
		return nil
	}
	return job.rel.ScanBatches(st, lo, hi, b, cols, flush)
}
