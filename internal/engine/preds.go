package engine

import (
	"fmt"

	"pascalr/internal/calculus"
	"pascalr/internal/collection"
	"pascalr/internal/optimizer"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// rowPred tests one element (tuple) of a relation during a scan,
// counting comparisons into the scanning worker's sink — predicates are
// compiled once per plan but evaluated by per-job (and per-shard)
// workers, so the sink travels with the call, not the closure.
type rowPred func(tuple []value.Value, st *stats.Counters) (bool, error)

// getter extracts an operand value from the scanned tuple.
type getter func(tuple []value.Value) value.Value

func compileOperand(o calculus.Operand, v string, sch *schema.RelSchema) (getter, error) {
	switch op := o.(type) {
	case calculus.Const:
		val := op.Val
		return func([]value.Value) value.Value { return val }, nil
	case calculus.Field:
		if op.Var != v {
			return nil, fmt.Errorf("engine: operand %s is not over variable %s", op, v)
		}
		ci, ok := sch.ColIndex(op.Col)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no component %s", sch.Name, op.Col)
		}
		return func(tuple []value.Value) value.Value { return tuple[ci] }, nil
	default:
		return nil, fmt.Errorf("engine: unresolved operand %s", o)
	}
}

// compileMonadic compiles a monadic join term over v into a row
// predicate.
func compileMonadic(c *calculus.Cmp, v string, sch *schema.RelSchema) (rowPred, error) {
	getL, err := compileOperand(c.L, v, sch)
	if err != nil {
		return nil, err
	}
	getR, err := compileOperand(c.R, v, sch)
	if err != nil {
		return nil, err
	}
	op := c.Op
	return func(tuple []value.Value, st *stats.Counters) (bool, error) {
		st.CountComparisons(1)
		return op.Apply(getL(tuple), getR(tuple))
	}, nil
}

// compileFilter compiles a (quantifier-free) range filter formula over
// the filter variable into a row predicate.
func compileFilter(f calculus.Formula, fv string, sch *schema.RelSchema) (rowPred, error) {
	switch g := f.(type) {
	case nil:
		return nil, fmt.Errorf("engine: nil filter formula")
	case *calculus.Lit:
		val := g.Val
		return func([]value.Value, *stats.Counters) (bool, error) { return val, nil }, nil
	case *calculus.Cmp:
		return compileMonadic(g, fv, sch)
	case *calculus.Not:
		sub, err := compileFilter(g.F, fv, sch)
		if err != nil {
			return nil, err
		}
		return func(tuple []value.Value, st *stats.Counters) (bool, error) {
			ok, err := sub(tuple, st)
			return !ok, err
		}, nil
	case *calculus.And:
		subs, err := compileFilters(g.Fs, fv, sch)
		if err != nil {
			return nil, err
		}
		return func(tuple []value.Value, st *stats.Counters) (bool, error) {
			for _, s := range subs {
				ok, err := s(tuple, st)
				if err != nil || !ok {
					return false, err
				}
			}
			return true, nil
		}, nil
	case *calculus.Or:
		subs, err := compileFilters(g.Fs, fv, sch)
		if err != nil {
			return nil, err
		}
		return func(tuple []value.Value, st *stats.Counters) (bool, error) {
			for _, s := range subs {
				ok, err := s(tuple, st)
				if err != nil || ok {
					return ok, err
				}
			}
			return false, nil
		}, nil
	default:
		return nil, fmt.Errorf("engine: quantifier inside range filter")
	}
}

func compileFilters(fs []calculus.Formula, fv string, sch *schema.RelSchema) ([]rowPred, error) {
	out := make([]rowPred, len(fs))
	for i, f := range fs {
		p, err := compileFilter(f, fv, sch)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// rangeFilterPred compiles a range expression's filter for elements of
// the variable v (the filter variable is renamed to v implicitly, since
// both denote the scanned tuple). Returns nil when the range has no
// filter.
func rangeFilterPred(r *calculus.RangeExpr, sch *schema.RelSchema) (rowPred, error) {
	if !r.Extended() {
		return nil, nil
	}
	return compileFilter(r.Filter, r.FilterVar, sch)
}

// specRuntime holds the execution state of one strategy-4 spec: the
// value list (or tuple list for multi-term subformulas) built while
// scanning the eliminated variable's range, and the derived predicate
// resolved from it.
type specRuntime struct {
	spec *optimizer.SemiSpec

	// Collection state.
	vl       *collection.ValueList // single dyadic term
	tuples   [][]value.Value       // multiple dyadic terms: distinct projected vn tuples
	tupleSet map[string]struct{}
	total    int // elements of the range (after range filter)
	monOK    int // elements additionally satisfying the monadic terms

	// Results, valid after finish().
	resolved bool // constant outcome known
	constVal bool
	pred     collection.QuantPred // single-dyadic predicate over the vm component
}

func newSpecRuntime(spec *optimizer.SemiSpec) *specRuntime {
	rt := &specRuntime{spec: spec}
	if len(spec.Dyadic) == 1 {
		rt.vl = collection.NewValueList()
	} else if len(spec.Dyadic) > 1 {
		rt.tupleSet = make(map[string]struct{})
	}
	return rt
}

// admit counts one element of the eliminated variable's range and
// reports whether its dyadic projection joins the value (or tuple)
// list: SOME collects only filtered elements; ALL collects the whole
// range (the monadic terms act as a global condition, counted
// separately).
func (rt *specRuntime) admit(monPassed bool) bool {
	rt.total++
	if monPassed {
		rt.monOK++
	}
	return rt.spec.All || monPassed
}

// add processes one element of the eliminated variable's range during
// the collection scan. monPassed reports whether the element satisfied
// the spec's monadic (and nested) predicates.
func (rt *specRuntime) add(tuple []value.Value, monPassed bool, dyCols []int) {
	if !rt.admit(monPassed) {
		return
	}
	switch {
	case rt.vl != nil:
		rt.vl.Add(tuple[dyCols[0]])
	case rt.tupleSet != nil:
		proj := make([]value.Value, len(dyCols))
		for i, ci := range dyCols {
			proj[i] = tuple[ci]
		}
		k := value.EncodeKey(proj)
		if _, dup := rt.tupleSet[k]; !dup {
			rt.tupleSet[k] = struct{}{}
			rt.tuples = append(rt.tuples, proj)
		}
	}
}

// merge folds a shard-local runtime into rt, in shard order: counters
// add up, and the value/tuple lists interleave exactly as one serial
// scan would have built them (first occurrence wins the dedup, shards
// cover consecutive slot ranges). Must run before finish.
func (rt *specRuntime) merge(o *specRuntime) {
	rt.total += o.total
	rt.monOK += o.monOK
	switch {
	case rt.vl != nil && o.vl != nil:
		rt.vl.Merge(o.vl)
	case rt.tupleSet != nil && o.tupleSet != nil:
		for _, proj := range o.tuples {
			k := value.EncodeKey(proj)
			if _, dup := rt.tupleSet[k]; !dup {
				rt.tupleSet[k] = struct{}{}
				rt.tuples = append(rt.tuples, proj)
			}
		}
	}
}

// finish resolves the derived predicate once the eliminated variable's
// range has been fully scanned.
func (rt *specRuntime) finish() error {
	s := rt.spec
	if s.All {
		// ALL vn (mon ∧ dy) = (ALL vn mon) AND (ALL vn dy). The first
		// factor is a constant; over an empty range both factors are
		// vacuously true (Lemma 1).
		if rt.monOK != rt.total {
			rt.resolved, rt.constVal = true, false
			return nil
		}
		if s.ConstOnly() || rt.total == 0 {
			rt.resolved, rt.constVal = true, true
			return nil
		}
	} else {
		// SOME vn (mon ∧ dy): with no qualifying element the atom is
		// false; with no dyadic terms it is simply "a qualifying element
		// exists".
		qualifying := rt.monOK
		if s.ConstOnly() {
			rt.resolved, rt.constVal = true, qualifying > 0
			return nil
		}
		if qualifying == 0 {
			rt.resolved, rt.constVal = true, false
			return nil
		}
	}
	if rt.vl != nil {
		p, err := collection.MakeQuantPred(rt.vl, s.Dyadic[0].Op, s.All)
		if err != nil {
			return err
		}
		rt.pred = p
	}
	return nil
}

// Size reports how many values the resolved predicate stores — the
// paper's section 4.4 storage measure.
func (rt *specRuntime) Size() int {
	switch {
	case rt.resolved:
		return 0
	case rt.pred != nil:
		return rt.pred.Size()
	default:
		return len(rt.tuples)
	}
}

// compileSemiAtom compiles a derived atom over the remaining variable vm
// into a row predicate against vm's relation schema.
func compileSemiAtom(sa *optimizer.SemiAtom, sch *schema.RelSchema, rt *specRuntime) (rowPred, error) {
	if sa.Spec.ConstOnly() {
		return func([]value.Value, *stats.Counters) (bool, error) {
			if !rt.resolved {
				return false, fmt.Errorf("engine: spec %d used before its scan finished", sa.Spec.ID)
			}
			return rt.constVal, nil
		}, nil
	}
	cols := make([]int, len(sa.Spec.Dyadic))
	for i, d := range sa.Spec.Dyadic {
		ci, ok := sch.ColIndex(d.VmCol)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no component %s", sch.Name, d.VmCol)
		}
		cols[i] = ci
	}
	ops := make([]value.CmpOp, len(sa.Spec.Dyadic))
	for i, d := range sa.Spec.Dyadic {
		ops[i] = d.Op
	}
	all := sa.Spec.All
	return func(tuple []value.Value, st *stats.Counters) (bool, error) {
		if rt.resolved {
			return rt.constVal, nil
		}
		if rt.pred != nil {
			st.CountComparisons(1)
			return rt.pred.Test(tuple[cols[0]]), nil
		}
		// General tuple-list evaluation for multi-term subformulas.
		for _, vnTup := range rt.tuples {
			match := true
			for i := range ops {
				st.CountComparisons(1)
				ok, err := ops[i].Apply(tuple[cols[i]], vnTup[i])
				if err != nil {
					return false, err
				}
				if !ok {
					match = false
					break
				}
			}
			if all && !match {
				return false, nil
			}
			if !all && match {
				return true, nil
			}
		}
		return all, nil
	}, nil
}
