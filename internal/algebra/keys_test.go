package algebra

import (
	"context"
	"math/rand"
	"testing"

	"pascalr/internal/value"
)

// The key-equivalence property for reference relations: the ordinal
// hash tables must reproduce, row for row and in the same order, what
// the same algorithms keyed by value.EncodeKey produce.

func encodeAt(row []value.Value, idx []int) string {
	vals := make([]value.Value, len(idx))
	for k, i := range idx {
		vals[k] = row[i]
	}
	return value.EncodeKey(vals)
}

// modelRel is the EncodeKey-keyed reference relation: distinct rows in
// insertion order.
type modelRel struct {
	vars []string
	seen map[string]bool
	rows [][]value.Value
}

func newModel(vars []string) *modelRel { return &modelRel{vars: vars, seen: map[string]bool{}} }

func (m *modelRel) add(row []value.Value) {
	if k := value.EncodeKey(row); !m.seen[k] {
		m.seen[k] = true
		m.rows = append(m.rows, append([]value.Value(nil), row...))
	}
}

func colsOf(vars []string, of []string) []int {
	idx := make([]int, len(of))
	for k, v := range of {
		for i, w := range vars {
			if w == v {
				idx[k] = i
			}
		}
	}
	return idx
}

// modelJoin is Join with EncodeKey-keyed buckets: the smaller side
// builds, the other probes in row order, matches emit in build order.
func modelJoin(a, b *RefRel) *modelRel {
	sv, ai, bi := shared(a, b)
	var extra []int
	outVars := append([]string(nil), a.vars...)
	for j, v := range b.vars {
		if _, dup := a.varIdx[v]; !dup {
			outVars = append(outVars, v)
			extra = append(extra, j)
		}
	}
	out := newModel(outVars)
	emit := func(ra, rb []value.Value) {
		row := append([]value.Value(nil), ra...)
		for _, j := range extra {
			row = append(row, rb[j])
		}
		out.add(row)
	}
	if len(sv) == 0 {
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				emit(ra, rb)
			}
		}
		return out
	}
	build, probe, bIdx, pIdx, buildIsA := a, b, ai, bi, true
	if b.Len() < a.Len() {
		build, probe, bIdx, pIdx, buildIsA = b, a, bi, ai, false
	}
	ht := map[string][]int{}
	for i, row := range build.rows {
		k := encodeAt(row, bIdx)
		ht[k] = append(ht[k], i)
	}
	for _, prow := range probe.rows {
		for _, i := range ht[encodeAt(prow, pIdx)] {
			if buildIsA {
				emit(build.rows[i], prow)
			} else {
				emit(prow, build.rows[i])
			}
		}
	}
	return out
}

func modelSemijoin(a, b *RefRel) *modelRel {
	sv, ai, bi := shared(a, b)
	out := newModel(a.vars)
	ht := map[string]bool{}
	for _, row := range b.rows {
		ht[encodeAt(row, bi)] = true
	}
	for _, row := range a.rows {
		if (len(sv) == 0 && b.Len() > 0) || (len(sv) > 0 && ht[encodeAt(row, ai)]) {
			out.add(row)
		}
	}
	return out
}

// modelDivide groups by the remaining columns in first-occurrence order
// and keeps the groups that saw every distinct divisor member.
func modelDivide(a *RefRel, v string, divisor []value.Value) *modelRel {
	vi := a.varIdx[v]
	var restVars []string
	var restIdx []int
	for i, w := range a.vars {
		if i != vi {
			restVars = append(restVars, w)
			restIdx = append(restIdx, i)
		}
	}
	div := map[string]bool{}
	for _, d := range divisor {
		div[value.EncodeKey([]value.Value{d})] = true
	}
	seen := map[string]map[string]bool{}
	var order []string
	rest := map[string][]value.Value{}
	for _, row := range a.rows {
		gk := encodeAt(row, restIdx)
		if seen[gk] == nil {
			seen[gk] = map[string]bool{}
			order = append(order, gk)
			var r []value.Value
			for _, i := range restIdx {
				r = append(r, row[i])
			}
			rest[gk] = r
		}
		if dk := value.EncodeKey([]value.Value{row[vi]}); div[dk] {
			seen[gk][dk] = true
		}
	}
	out := newModel(restVars)
	for _, gk := range order {
		if len(seen[gk]) == len(div) {
			out.add(rest[gk])
		}
	}
	return out
}

func sameRows(t *testing.T, what string, got *RefRel, want *modelRel) {
	t.Helper()
	if len(got.vars) != len(want.vars) {
		t.Fatalf("%s: vars %v, want %v", what, got.vars, want.vars)
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d rows, want %d", what, len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if value.EncodeKey(got.rows[i]) != value.EncodeKey(want.rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.rows[i], want.rows[i])
		}
	}
}

// randRef draws from two relations that share their slot numbers, so
// references equal in slot differ only in the relation part of their
// ordinal.
func randRef(r *rand.Rand) value.Value { return value.Ref(1+r.Intn(2), r.Intn(4), 0) }

func randRel(r *rand.Rand, vars []string) (*RefRel, *modelRel) {
	rel, m := New(vars, nil), newModel(vars)
	for i, n := 0, r.Intn(30); i < n; i++ {
		row := make([]value.Value, len(vars))
		for j := range row {
			row[j] = randRef(r)
		}
		rel.Add(row)
		m.add(row)
	}
	return rel, m
}

var varSets = [][]string{{"x"}, {"y"}, {"x", "y"}, {"y", "z"}, {"x", "z", "y"}, {"z", "w"}}

func TestRefRelKeyEquivalence(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		a, ma := randRel(r, varSets[r.Intn(len(varSets))])
		b, _ := randRel(r, varSets[r.Intn(len(varSets))])
		sameRows(t, "Add", a, ma)
		for i := 0; i < 20; i++ {
			probe := make([]value.Value, len(a.vars))
			for j := range probe {
				probe[j] = randRef(r)
			}
			if a.Has(probe) != ma.seen[value.EncodeKey(probe)] {
				t.Fatalf("trial %d: Has(%v) = %v", trial, probe, a.Has(probe))
			}
		}

		j, err := Join(ctx, a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "Join", j, modelJoin(a, b))
		sj, err := Semijoin(ctx, a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "Semijoin", sj, modelSemijoin(a, b))

		if len(a.vars) > 1 {
			v := a.vars[r.Intn(len(a.vars))]
			var divisor []value.Value
			for i, n := 0, r.Intn(4); i < n; i++ {
				divisor = append(divisor, randRef(r))
			}
			d, err := Divide(ctx, a, v, divisor, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "Divide", d, modelDivide(a, v, divisor))
		}

		on := a.vars[:1+r.Intn(len(a.vars))]
		distinct := map[string]bool{}
		for _, row := range a.rows {
			distinct[encodeAt(row, colsOf(a.vars, on))] = true
		}
		if got := a.DistinctOn(on); got != len(distinct) {
			t.Fatalf("trial %d: DistinctOn(%v) = %d, want %d", trial, on, got, len(distinct))
		}
	}
}

// TestRowHashCollision builds two distinct keys with the same hash:
// every table must tell them apart by comparing the ordinals.
func TestRowHashCollision(t *testing.T) {
	a0, a1, b0 := value.Ref(1, 7, 0), value.Ref(2, 9, 0), value.Ref(1, 8, 0)
	// Solve rowHash((a0, a1)) == rowHash((b0, b1)) for b1.
	b1 := value.MakeOrd(value.KindRef, int64(rowHash([]value.Value{a0, a1}, []int{0, 1})^uint64(b0.Ord())*0x9E3779B97F4A7C15), "")
	ra, rb := []value.Value{a0, a1}, []value.Value{b0, b1}
	if rowHash(ra, []int{0, 1}) != rowHash(rb, []int{0, 1}) {
		t.Fatal("rows do not collide; the test needs updating with rowHash")
	}
	rel := New([]string{"x", "y"}, nil)
	if !rel.Add(ra) || !rel.Add(rb) || rel.Len() != 2 {
		t.Fatalf("colliding rows deduplicated: %v", rel.Rows())
	}
	if !rel.Has(ra) || !rel.Has(rb) || rel.Has([]value.Value{a0, b1}) {
		t.Fatal("Has confuses colliding rows")
	}
	if d := rel.DistinctOn([]string{"x", "y"}); d != 2 {
		t.Fatalf("DistinctOn = %d, want 2", d)
	}
	other := New([]string{"x", "y"}, nil)
	other.Add(rb)
	sj, err := Semijoin(context.Background(), rel, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Len() != 1 || !sj.Has(rb) {
		t.Fatalf("Semijoin = %v, want only %v", sj.Rows(), rb)
	}
	j, err := Join(context.Background(), rel, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || !j.Has(rb) {
		t.Fatalf("Join = %v, want only %v", j.Rows(), rb)
	}
}
