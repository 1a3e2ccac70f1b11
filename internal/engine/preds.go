package engine

import (
	"pascalr/internal/collection"
	"pascalr/internal/optimizer"
	"pascalr/internal/value"
)

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

// addTuple processes one element of a multi-dyadic spec's range during
// the collection scan: its projection onto dyCols joins the tuple list
// when admitted and not yet present. monPassed reports whether the
// element satisfied the spec's monadic (and nested) predicates.
func (rt *specRuntime) addTuple(tuple []value.Value, monPassed bool, dyCols []int) {
	if !rt.admit(monPassed) {
		return
	}
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
