package collection

import (
	"math/rand"
	"sort"
	"testing"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// The key-equivalence property: every collection structure must behave
// exactly like a reference model that keys values by value.EncodeKey —
// the same membership, the same insertion order, the same first
// occurrence winning a dedup, the same extremes — over values of every
// kind. The generators draw from small domains so duplicates, shared
// ordinals across kinds and enumeration types, and min/max ties are
// common.

// sorts lists one generator per sort: two enumeration types sharing
// their ordinals, references into two relations sharing their slots,
// integers overlapping both, booleans and strings.
var sorts = []func(r *rand.Rand) value.Value{
	func(r *rand.Rand) value.Value { return value.Int(int64(r.Intn(6))) },
	func(r *rand.Rand) value.Value { return value.Bool(r.Intn(2) == 1) },
	func(r *rand.Rand) value.Value { return value.Enum("colour", r.Intn(4)) },
	func(r *rand.Rand) value.Value { return value.Enum("size", r.Intn(4)) },
	func(r *rand.Rand) value.Value { return value.Ref(1, r.Intn(6), 0) },
	func(r *rand.Rand) value.Value { return value.Ref(2, r.Intn(6), 0) },
	func(r *rand.Rand) value.Value { return value.String_(string(rune('a' + r.Intn(4)))) },
}

func anyValue(r *rand.Rand) value.Value { return sorts[r.Intn(len(sorts))](r) }

// modelSet is the EncodeKey-keyed reference: a dedup set plus the
// insertion order of first occurrences.
type modelSet struct {
	seen  map[string]bool
	order []value.Value
}

func (m *modelSet) add(v value.Value) {
	k := value.EncodeKey([]value.Value{v})
	if m.seen == nil {
		m.seen = map[string]bool{}
	}
	if !m.seen[k] {
		m.seen[k] = true
		m.order = append(m.order, v)
	}
}

func (m *modelSet) has(v value.Value) bool { return m.seen[value.EncodeKey([]value.Value{v})] }

func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// shardsOf splits xs into up to four consecutive slices.
func shardsOf[T any](r *rand.Rand, vals []T) [][]T {
	var out [][]T
	for len(vals) > 0 {
		n := 1 + r.Intn(len(vals))
		if len(out) == 3 {
			n = len(vals)
		}
		out = append(out, vals[:n])
		vals = vals[n:]
	}
	return out
}

func TestSingleListKeyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		vals := make([]value.Value, r.Intn(40))
		for i := range vals {
			vals[i] = anyValue(r)
		}
		var m modelSet
		serial := NewSingleList("v")
		for _, v := range vals {
			m.add(v)
			serial.Add(v)
		}
		// Shards of one scan are disjoint: each value goes to the shard
		// of its first occurrence, duplicates dedup within a shard.
		merged := NewSingleList("v")
		var done modelSet
		for _, part := range shardsOf(r, vals) {
			sh := NewSingleList("v")
			for _, v := range part {
				if !done.has(v) {
					sh.Add(v)
				}
			}
			for _, v := range part {
				done.add(v)
			}
			merged.Merge(sh)
		}
		for i, sl := range []*SingleList{serial, merged} {
			name := []string{"serial", "merged"}[i]
			if !sameValues(sl.Refs(), m.order) || sl.Len() != len(m.order) {
				t.Fatalf("trial %d %s: Refs = %v, want %v", trial, name, sl.Refs(), m.order)
			}
			for i := 0; i < 30; i++ {
				p := anyValue(r)
				if sl.Has(p) != m.has(p) {
					t.Fatalf("trial %d %s: Has(%v) = %v, want %v", trial, name, p, sl.Has(p), m.has(p))
				}
			}
		}
	}
}

var allOps = []value.CmpOp{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}

// modelProbe is what Index.Probe emits: = and <> in insertion order, the
// ordered operators in ascending (stable) value order.
func modelProbe(entries []IndexEntry, op value.CmpOp, pv value.Value) []value.Value {
	es := entries
	if op != value.OpEq && op != value.OpNe {
		es = append([]IndexEntry(nil), entries...)
		sort.SliceStable(es, func(i, j int) bool { return value.MustCompare(es[i].Val, es[j].Val) < 0 })
	}
	var out []value.Value
	for _, e := range es {
		var ok bool
		switch op {
		case value.OpEq:
			ok = value.EncodeKey([]value.Value{e.Val}) == value.EncodeKey([]value.Value{pv})
		case value.OpNe:
			ok = value.EncodeKey([]value.Value{e.Val}) != value.EncodeKey([]value.Value{pv})
		default:
			ok, _ = op.Apply(pv, e.Val)
		}
		if ok {
			out = append(out, e.Ref)
		}
	}
	return out
}

func TestIndexKeyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	st := &stats.Counters{}
	for trial := 0; trial < 300; trial++ {
		// Even trials index one sort (every operator applies); odd
		// trials mix sorts, which only = and <> may probe.
		gen := anyValue
		if trial%2 == 0 {
			gen = sorts[r.Intn(len(sorts))]
		}
		var entries []IndexEntry
		for i, n := 0, r.Intn(40); i < n; i++ {
			entries = append(entries, IndexEntry{Val: gen(r), Ref: value.Ref(3, i, 0)})
		}
		merged := NewIndex("r", "c")
		for _, part := range shardsOf(r, entries) {
			sh := NewIndex("r", "c")
			for _, e := range part {
				sh.Add(e.Val, e.Ref)
			}
			merged.Merge(sh)
		}
		for i := 0; i < 30; i++ {
			pv := anyValue(r)
			ops := allOps[:2]
			if trial%2 == 0 {
				pv = gen(r)
				ops = allOps
			}
			if got, want := merged.ProbeEq(st, pv), modelProbe(entries, value.OpEq, pv); !sameValues(got, want) {
				t.Fatalf("trial %d: ProbeEq(%v) = %v, want %v", trial, pv, got, want)
			}
			for _, op := range ops {
				var got []value.Value
				merged.Probe(st, op, pv, func(ref value.Value) { got = append(got, ref) })
				if want := modelProbe(entries, op, pv); !sameValues(got, want) {
					t.Fatalf("trial %d: Probe(%v %v) = %v, want %v", trial, op, pv, got, want)
				}
			}
		}
	}
}

// modelList is the reference value list: the model set plus extremes
// that only a strictly smaller (larger) value replaces.
type modelList struct {
	modelSet
	min, max value.Value
}

func (m *modelList) add(v value.Value) {
	n := len(m.order)
	m.modelSet.add(v)
	if len(m.order) == n {
		return
	}
	if !m.min.IsValid() || value.MustCompare(v, m.min) < 0 {
		m.min = v
	}
	if !m.max.IsValid() || value.MustCompare(v, m.max) > 0 {
		m.max = v
	}
}

func TestValueListKeyEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		gen := sorts[r.Intn(len(sorts))] // a list holds one column: one sort
		vals := make([]value.Value, 1+r.Intn(40))
		for i := range vals {
			vals[i] = gen(r)
		}
		var m modelList
		serial := NewValueList()
		for _, v := range vals {
			m.add(v)
			serial.Add(v)
		}
		// Shards overlap: a value in several shards keeps its first
		// occurrence's position once merged.
		merged := NewValueList()
		for _, part := range shardsOf(r, vals) {
			sh := NewValueList()
			for _, v := range part {
				sh.Add(v)
			}
			merged.Merge(sh)
		}
		for i, vl := range []*ValueList{serial, merged} {
			name := []string{"serial", "merged"}[i]
			if !sameValues(vl.Values(), m.order) || vl.Len() != len(m.order) {
				t.Fatalf("trial %d %s: Values = %v, want %v", trial, name, vl.Values(), m.order)
			}
			if !value.Equal(vl.Min(), m.min) || !value.Equal(vl.Max(), m.max) {
				t.Fatalf("trial %d %s: min/max = %v/%v, want %v/%v", trial, name, vl.Min(), vl.Max(), m.min, m.max)
			}
			for i := 0; i < 30; i++ {
				p := anyValue(r)
				if vl.Has(p) != m.has(p) {
					t.Fatalf("trial %d %s: Has(%v) = %v, want %v", trial, name, p, vl.Has(p), m.has(p))
				}
			}
		}
	}
}

// TestQuantPredFilterOrdBits checks the column-wise form of every
// derived predicate against Test, over unboxed columns of every
// int-backed sort — the list's own sort and mismatched ones.
func TestQuantPredFilterOrdBits(t *testing.T) {
	type colSort struct {
		kind value.Kind
		enum string
	}
	colSorts := []colSort{{value.KindInt, ""}, {value.KindBool, ""}, {value.KindEnum, "colour"}, {value.KindEnum, "size"}, {value.KindRef, ""}}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		gen := sorts[r.Intn(len(sorts))]
		vl := NewValueList()
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			vl.Add(gen(r))
		}
		cs := colSorts[r.Intn(len(colSorts))]
		n := 1 + r.Intn(150)
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(r.Intn(6))
			if cs.kind == value.KindBool {
				col[i] %= 2
			}
			if cs.kind == value.KindRef {
				col[i] = value.Ref(1+r.Intn(2), int(col[i]), 0).Ord()
			}
		}
		for _, op := range allOps {
			for _, all := range []bool{false, true} {
				p, err := MakeQuantPred(vl, op, all)
				if err != nil {
					t.Fatal(err)
				}
				words := make([]uint64, (n+63)/64)
				for i := 0; i < n; i++ {
					if r.Intn(4) != 0 {
						words[i/64] |= 1 << uint(i%64)
					}
				}
				sel := append([]uint64(nil), words...)
				p.FilterOrdBits(cs.kind, cs.enum, col, words)
				for i := 0; i < n; i++ {
					was := sel[i/64]>>uint(i%64)&1 == 1
					got := words[i/64]>>uint(i%64)&1 == 1
					want := was && p.Test(value.MakeOrd(cs.kind, col[i], cs.enum))
					if got != want {
						t.Fatalf("trial %d: %v over %v column, row %d (%d): bit %v, want %v", trial, p, cs, i, col[i], got, want)
					}
				}
			}
		}
	}
}
