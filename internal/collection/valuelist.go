package collection

import (
	"fmt"
	"math/bits"

	"pascalr/internal/value"
)

// ValueList collects the distinct values of one component of the
// qualifying elements of a quantified variable's range — the structure
// strategy 4 builds instead of a complete index ("When vnrel is read,
// instead of a complete index only its value list is generated").
type ValueList struct {
	set      keyMap[struct{}]
	vals     []value.Value
	min, max value.Value
}

// NewValueList creates an empty value list.
func NewValueList() *ValueList {
	return &ValueList{}
}

// Add inserts a value, maintaining the distinct set and the min/max.
// Values of the list's ordinal sort compare by their Ord payloads,
// which order exactly as value.Compare does for integers, booleans,
// same-type enumerations and references; on a tie the earlier value
// stays the extreme.
func (vl *ValueList) Add(v value.Value) {
	if !vl.set.insert(v) {
		return
	}
	vl.vals = append(vl.vals, v)
	switch {
	case len(vl.vals) == 1:
		vl.min, vl.max = v, v
	case vl.set.isOrd(v):
		if o := v.Ord(); o < vl.min.Ord() {
			vl.min = v
		} else if o > vl.max.Ord() {
			vl.max = v
		}
	default:
		if value.MustCompare(v, vl.min) < 0 {
			vl.min = v
		} else if value.MustCompare(v, vl.max) > 0 {
			vl.max = v
		}
	}
}

// Merge adds another list's values in its insertion order, exactly as
// if they had been added here one by one — the first occurrence wins
// the dedup and a tie keeps the earlier extreme. It folds shard-local
// lists built over consecutive slices of one scan. An empty list takes
// over o's storage, so o must not be used afterwards.
func (vl *ValueList) Merge(o *ValueList) {
	if vl.Len() == 0 {
		*vl = *o
		return
	}
	for _, v := range o.vals {
		vl.Add(v)
	}
}

// Len returns the number of distinct values.
func (vl *ValueList) Len() int { return len(vl.vals) }

// Has reports membership.
func (vl *ValueList) Has(v value.Value) bool {
	_, ok := vl.set.get(v)
	return ok
}

// Min and Max return the extreme values; they are invalid when empty.
func (vl *ValueList) Min() value.Value { return vl.min }

// Max returns the largest value.
func (vl *ValueList) Max() value.Value { return vl.max }

// Values returns the distinct values in insertion order.
func (vl *ValueList) Values() []value.Value { return vl.vals }

// QuantPred is a derived monadic predicate over one component value x,
// deciding "SOME v in list: x op v" or "ALL v in list: x op v" — the
// quantifier evaluation strategy 4 moves into the collection phase.
// Size reports how many values the predicate actually needs to store,
// reproducing the paper's storage refinements.
type QuantPred interface {
	Test(x value.Value) bool
	// FilterOrdBits is Test over an unboxed column of kind k (and, for
	// enumerations, type enum): it clears the bits in words of the rows
	// for which Test would be false. The column-wise form strategy 4's
	// derived atoms run in the vectorized collection path.
	FilterOrdBits(k value.Kind, enum string, col []int64, words []uint64)
	Size() int
	String() string
}

// MakeQuantPred builds the most compact predicate for the given
// operator and quantifier per section 4.4:
//
//   - < and <= need only the maximum (SOME) or minimum (ALL) value;
//     > and >= symmetrically the minimum (SOME) or maximum (ALL);
//   - = with ALL needs at most one value: with two or more distinct
//     values it is constantly false;
//   - <> with SOME needs at most one value: with two or more distinct
//     values it is constantly true;
//   - = with SOME and <> with ALL need the full distinct set.
//
// The list must be non-empty: quantifiers over empty ranges are folded
// away by the Lemma 1 adaptation before strategy 4 applies.
func MakeQuantPred(vl *ValueList, op value.CmpOp, all bool) (QuantPred, error) {
	if vl.Len() == 0 {
		return nil, fmt.Errorf("collection: quantifier predicate over empty value list (fold empty ranges first)")
	}
	switch op {
	case value.OpLt, value.OpLe:
		// x op SOME v  <=>  x op max;   x op ALL v  <=>  x op min.
		bound := vl.Max()
		if all {
			bound = vl.Min()
		}
		return &boundPred{op: op, bound: bound}, nil
	case value.OpGt, value.OpGe:
		bound := vl.Min()
		if all {
			bound = vl.Max()
		}
		return &boundPred{op: op, bound: bound}, nil
	case value.OpEq:
		if !all {
			return &setPred{vl: vl, member: true}, nil
		}
		if vl.Len() > 1 {
			return constPred(false), nil
		}
		return &boundPred{op: value.OpEq, bound: vl.Min()}, nil
	case value.OpNe:
		if all {
			return &setPred{vl: vl, member: false}, nil
		}
		if vl.Len() > 1 {
			return constPred(true), nil
		}
		return &boundPred{op: value.OpNe, bound: vl.Min()}, nil
	default:
		return nil, fmt.Errorf("collection: unknown operator %v", op)
	}
}

// boundPred stores a single value: the min/max refinement and the
// singleton =ALL / <>SOME cases.
type boundPred struct {
	op    value.CmpOp
	bound value.Value
}

func (p *boundPred) Test(x value.Value) bool {
	ok, err := p.op.Apply(x, p.bound)
	return err == nil && ok
}
func (p *boundPred) FilterOrdBits(k value.Kind, enum string, col []int64, words []uint64) {
	b := p.bound
	if b.Kind() != k || (k == value.KindEnum && b.EnumType() != enum) {
		clear(words) // Test fails on every value of another sort
		return
	}
	p.op.FilterOrdBits(col, b.Ord(), words)
}
func (p *boundPred) Size() int      { return 1 }
func (p *boundPred) String() string { return fmt.Sprintf("x %v %v", p.op, p.bound) }

// setPred stores the full distinct set: the =SOME (membership) and
// <>ALL (non-membership) cases.
type setPred struct {
	vl     *ValueList
	member bool
}

func (p *setPred) Test(x value.Value) bool { return p.vl.Has(x) == p.member }
func (p *setPred) FilterOrdBits(k value.Kind, enum string, col []int64, words []uint64) {
	ords := p.vl.set.ordsFor(k, enum) // nil: no value of this sort is listed
	for wi, w := range words {
		for m := w; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if _, in := ords[col[wi*64+i]]; in != p.member {
				w &^= 1 << uint(i)
			}
		}
		words[wi] = w
	}
}
func (p *setPred) Size() int { return p.vl.Len() }
func (p *setPred) String() string {
	if p.member {
		return fmt.Sprintf("x IN list[%d]", p.vl.Len())
	}
	return fmt.Sprintf("x NOT IN list[%d]", p.vl.Len())
}

// constPred is a constant decision: =ALL over two or more values, or
// <>SOME over two or more values.
type constPred bool

func (p constPred) Test(value.Value) bool { return bool(p) }
func (p constPred) FilterOrdBits(_ value.Kind, _ string, _ []int64, words []uint64) {
	if !p {
		clear(words)
	}
}
func (p constPred) Size() int { return 0 }
func (p constPred) String() string {
	if p {
		return "always TRUE"
	}
	return "always FALSE"
}
