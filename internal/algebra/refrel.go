// Package algebra implements the combination phase's data structure and
// operations: reference relations — relations whose components are
// references to database elements, one column per calculus variable —
// and the relational operations the paper evaluates logical operators
// and quantifiers with: join and Cartesian product for conjunctions,
// union for the disjunction, projection for existential quantifiers,
// and division for universal quantifiers.
package algebra

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// cancelCheckInterval is how many row operations pass between context
// checks inside the set operations; combination-phase loops over large
// intermediate results stay responsive to cancellation.
const cancelCheckInterval = 4096

// ticker checks a context every cancelCheckInterval ticks.
type ticker struct {
	ctx context.Context
	n   int
}

func (t *ticker) tick() error {
	if t.n++; t.n%cancelCheckInterval == 0 {
		return t.ctx.Err()
	}
	return nil
}

// RefRel is a set of tuples of references, with one named column per
// selection-expression variable. The dedup set and every hash table
// below key rows by the references' ordinals (rowTable), never by an
// encoded key string.
type RefRel struct {
	vars   []string
	varIdx map[string]int
	rows   [][]value.Value
	slab   []value.Value // backing store the next added rows are carved from
	set    rowTable      // over rows, keyed by every column
	st     *stats.Counters

	// distinctCache memoizes DistinctOn per column set; invalidated on
	// Add. Join-size estimation queries the same pieces repeatedly.
	distinctCache map[string]int
}

// New creates an empty reference relation with the given variable
// columns. Tuples added through Add are counted against st.
func New(vars []string, st *stats.Counters) *RefRel {
	return newSized(vars, st, 0)
}

// newSized is New with room for n tuples.
func newSized(vars []string, st *stats.Counters, n int) *RefRel {
	r := &RefRel{
		rows:   make([][]value.Value, 0, n),
		vars:   append([]string(nil), vars...),
		varIdx: make(map[string]int, len(vars)),
		st:     st,
	}
	all := make([]int, len(vars))
	for i, v := range vars {
		if _, dup := r.varIdx[v]; dup {
			panic(fmt.Sprintf("algebra: duplicate variable column %s", v))
		}
		r.varIdx[v] = i
		all[i] = i
	}
	r.set = newRowTable(all, n)
	r.slab = make([]value.Value, n*len(vars))
	return r
}

// Vars returns the column variables in order.
func (r *RefRel) Vars() []string { return r.vars }

// Len returns the number of tuples.
func (r *RefRel) Len() int { return len(r.rows) }

// Rows returns the underlying tuples; callers must not modify them.
func (r *RefRel) Rows() [][]value.Value { return r.rows }

// ColIdx returns the column position of a variable.
func (r *RefRel) ColIdx(v string) (int, bool) {
	i, ok := r.varIdx[v]
	return i, ok
}

// Add inserts a tuple (copied) unless an identical tuple is present; it
// reports whether the tuple was new.
func (r *RefRel) Add(row []value.Value) bool {
	if len(row) != len(r.vars) {
		panic(fmt.Sprintf("algebra: arity mismatch: row %d vs vars %d", len(row), len(r.vars)))
	}
	h := rowHash(row, r.set.cols)
	if r.set.find(r.rows, h, row, r.set.cols) >= 0 {
		return false
	}
	if len(r.slab) < len(row) {
		// Chunks grow with the relation, as append would grow it.
		r.slab = make([]value.Value, min(max(len(r.rows), 4), 1024)*len(row))
	}
	cp := r.slab[:len(row):len(row)]
	r.slab = r.slab[len(row):]
	copy(cp, row)
	r.rows = append(r.rows, cp)
	r.set.push(h)
	r.distinctCache = nil
	r.st.CountRefTuples(1, len(r.rows))
	return true
}

// Has reports whether an identical tuple is present.
func (r *RefRel) Has(row []value.Value) bool {
	return r.set.find(r.rows, rowHash(row, r.set.cols), row, r.set.cols) >= 0
}

// String renders a summary for EXPLAIN and debugging.
func (r *RefRel) String() string {
	return fmt.Sprintf("refrel(%s)[%d]", strings.Join(r.vars, ","), len(r.rows))
}

// rowTable is a hash table over rows of references, keyed by the
// ordinals of chosen key columns. A bucket maps a key hash to a chain of
// row indexes (head, then next[i] from row i), and every lookup
// confirms a candidate with value.Equal on the key columns, so distinct
// keys that share a hash never match. The rows themselves live with the
// caller and are passed in, in the order they were linked.
type rowTable struct {
	cols []int // key columns of the indexed rows
	head map[uint64]int32
	next []int32 // next[i]: the next row of row i's bucket, -1 at the end
}

func newRowTable(cols []int, n int) rowTable {
	return rowTable{cols: cols, head: make(map[uint64]int32, n), next: make([]int32, 0, n)}
}

// rowHash hashes the ordinals of a row's key columns. A single-column
// key hashes to its ordinal unchanged.
func rowHash(row []value.Value, idx []int) uint64 {
	var h uint64
	for _, i := range idx {
		h = h*0x9E3779B97F4A7C15 ^ uint64(row[i].Ord())
	}
	return h
}

// sameKey reports whether a's columns ai equal b's columns bi.
func sameKey(a []value.Value, ai []int, b []value.Value, bi []int) bool {
	for k, i := range ai {
		if !value.Equal(a[i], b[bi[k]]) {
			return false
		}
	}
	return true
}

// first returns the first row of h's bucket, or -1.
func (t *rowTable) first(h uint64) int32 {
	if j, ok := t.head[h]; ok {
		return j
	}
	return -1
}

// find returns the index of a row in rows whose key equals probe's
// columns pidx (probe hashes to h), or -1.
func (t *rowTable) find(rows [][]value.Value, h uint64, probe []value.Value, pidx []int) int {
	for j := t.first(h); j >= 0; j = t.next[j] {
		if sameKey(rows[j], t.cols, probe, pidx) {
			return int(j)
		}
	}
	return -1
}

// link chains row i into h's bucket, ahead of the rows linked before
// it; next must already have a slot for i.
func (t *rowTable) link(i int, h uint64) {
	t.next[i] = t.first(h)
	t.head[h] = int32(i)
}

// push links the next row, index len(next).
func (t *rowTable) push(h uint64) {
	t.next = append(t.next, 0)
	t.link(len(t.next)-1, h)
}

// shared returns the variables common to a and b, with their column
// indexes in each, in a's column order.
func shared(a, b *RefRel) (vars []string, ai, bi []int) {
	for i, v := range a.vars {
		if j, ok := b.varIdx[v]; ok {
			vars = append(vars, v)
			ai = append(ai, i)
			bi = append(bi, j)
		}
	}
	return
}

// Join computes the natural join of a and b on their shared variables.
// With no shared variables it degenerates to the Cartesian product,
// which is exactly the standard algorithm's behaviour for conjunctions
// that do not link all variables. The context is checked periodically —
// a runaway product aborts with ctx.Err() instead of materializing.
func Join(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	tk := ticker{ctx: ctx}
	sv, ai, bi := shared(a, b)
	outVars := append([]string(nil), a.vars...)
	for _, v := range b.vars {
		if _, dup := a.varIdx[v]; !dup {
			outVars = append(outVars, v)
		}
	}
	out := New(outVars, st)
	if len(sv) == 0 {
		st.CountCartesianJoin()
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				if err := tk.tick(); err != nil {
					return nil, err
				}
				out.Add(concatRows(ra, rb, b, nil))
			}
		}
		return out, nil
	}
	st.CountHashJoin()
	// Hash the smaller side on the shared key, probe with the larger.
	build, probe := a, b
	bIdx, pIdx := ai, bi
	buildIsA := true
	if b.Len() < a.Len() {
		build, probe = b, a
		bIdx, pIdx = bi, ai
		buildIsA = false
	}
	// Link the build rows last to first: each bucket then chains its
	// rows in insertion order, the order matches are emitted in.
	ht := newRowTable(bIdx, build.Len())
	ht.next = ht.next[:build.Len()]
	for i := build.Len() - 1; i >= 0; i-- {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		ht.link(i, rowHash(build.rows[i], bIdx))
	}
	for _, prow := range probe.rows {
		st.CountProbes(1)
		if err := tk.tick(); err != nil {
			return nil, err
		}
		for i := ht.first(rowHash(prow, pIdx)); i >= 0; i = ht.next[i] {
			brow := build.rows[i]
			if !sameKey(brow, bIdx, prow, pIdx) {
				continue
			}
			if err := tk.tick(); err != nil {
				return nil, err
			}
			var arow, brow2 []value.Value
			if buildIsA {
				arow, brow2 = brow, prow
			} else {
				arow, brow2 = prow, brow
			}
			out.Add(concatRows(arow, brow2, b, a))
		}
	}
	return out, nil
}

// concatRows builds an output row: all of a's columns, then b's columns
// that a does not have. aRel may be nil when no columns are shared.
func concatRows(arow, brow []value.Value, bRel, aRel *RefRel) []value.Value {
	out := make([]value.Value, 0, len(arow)+len(brow))
	out = append(out, arow...)
	for j, v := range bRel.vars {
		if aRel != nil {
			if _, dup := aRel.varIdx[v]; dup {
				continue
			}
		}
		out = append(out, brow[j])
	}
	return out
}

// Cartesian computes the Cartesian product of a and b, which must share
// no variables.
func Cartesian(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	if sv, _, _ := shared(a, b); len(sv) != 0 {
		panic(fmt.Sprintf("algebra: Cartesian with shared variables %v", sv))
	}
	return Join(ctx, a, b, st)
}

// Union computes a ∪ b; both must have the same variable set (column
// order may differ; b's rows are permuted to a's order).
func Union(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	if len(a.vars) != len(b.vars) {
		return nil, fmt.Errorf("algebra: union arity mismatch (%v vs %v)", a.vars, b.vars)
	}
	perm := make([]int, len(a.vars))
	for i, v := range a.vars {
		j, ok := b.varIdx[v]
		if !ok {
			return nil, fmt.Errorf("algebra: union variable mismatch: %s missing (%v vs %v)", v, a.vars, b.vars)
		}
		perm[i] = j
	}
	tk := ticker{ctx: ctx}
	out := New(a.vars, st)
	for _, row := range a.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		out.Add(row)
	}
	tmp := make([]value.Value, len(a.vars))
	for _, row := range b.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		for i, j := range perm {
			tmp[i] = row[j]
		}
		out.Add(tmp)
	}
	return out, nil
}

// Project keeps only the named variables (existential quantifier
// elimination), deduplicating the result.
func Project(ctx context.Context, a *RefRel, keep []string, st *stats.Counters) (*RefRel, error) {
	idx := make([]int, len(keep))
	for i, v := range keep {
		j, ok := a.varIdx[v]
		if !ok {
			return nil, fmt.Errorf("algebra: project on absent variable %s", v)
		}
		idx[i] = j
	}
	tk := ticker{ctx: ctx}
	out := New(keep, st)
	tmp := make([]value.Value, len(keep))
	for _, row := range a.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		for i, j := range idx {
			tmp[i] = row[j]
		}
		out.Add(tmp)
	}
	return out, nil
}

// Divide implements relational division for universal quantification:
// it returns the tuples t over a's variables minus v such that for
// every reference d in divisor, t extended with d is present in a.
//
// An empty divisor yields the projection of a onto the remaining
// variables; callers evaluating ALL over a possibly-empty range must
// fold that case out beforehand (Lemma 1), because the correct answer
// there is "all bindings", not "all bindings present in a".
func Divide(ctx context.Context, a *RefRel, v string, divisor []value.Value, st *stats.Counters) (*RefRel, error) {
	vi, ok := a.varIdx[v]
	if !ok {
		return nil, fmt.Errorf("algebra: divide on absent variable %s", v)
	}
	restVars := make([]string, 0, len(a.vars)-1)
	restIdx := make([]int, 0, len(a.vars)-1)
	for i, av := range a.vars {
		if i != vi {
			restVars = append(restVars, av)
			restIdx = append(restIdx, i)
		}
	}
	// Deduplicate the divisor (references of v's relation, keyed by
	// ordinal).
	divSet := make(map[int64]struct{}, len(divisor))
	for _, d := range divisor {
		divSet[d.Ord()] = struct{}{}
	}
	need := len(divSet)

	// Group rows by the remaining variables, in first-occurrence order,
	// and collect the distinct divisor members seen per group.
	tk := ticker{ctx: ctx}
	restCols := make([]int, len(restIdx))
	for i := range restCols {
		restCols[i] = i
	}
	groups := newRowTable(restCols, 0)
	var rests [][]value.Value
	var seen []map[int64]struct{}
	for _, row := range a.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		h := rowHash(row, restIdx)
		g := groups.find(rests, h, row, restIdx)
		if g < 0 {
			rest := make([]value.Value, len(restIdx))
			for i, j := range restIdx {
				rest[i] = row[j]
			}
			g = len(rests)
			rests = append(rests, rest)
			seen = append(seen, make(map[int64]struct{}))
			groups.push(h)
		}
		d := row[vi].Ord()
		if _, isDiv := divSet[d]; isDiv {
			seen[g][d] = struct{}{}
		}
	}
	out := New(restVars, st)
	for g, rest := range rests {
		if len(seen[g]) == need {
			out.Add(rest)
		}
	}
	return out, nil
}

// Semijoin returns the rows of a that join with at least one row of b on
// their shared variables. It backs strategy-2 style restriction between
// intermediate structures.
func Semijoin(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	tk := ticker{ctx: ctx}
	sv, ai, bi := shared(a, b)
	out := New(a.vars, st)
	if len(sv) == 0 {
		if b.Len() > 0 {
			for _, row := range a.rows {
				if err := tk.tick(); err != nil {
					return nil, err
				}
				out.Add(row)
			}
		}
		return out, nil
	}
	ht := newRowTable(bi, b.Len())
	for _, row := range b.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		ht.push(rowHash(row, bi))
	}
	for _, row := range a.rows {
		st.CountProbes(1)
		if err := tk.tick(); err != nil {
			return nil, err
		}
		if ht.find(b.rows, rowHash(row, ai), row, ai) >= 0 {
			out.Add(row)
		}
	}
	return out, nil
}

// FromRefs builds a single-column reference relation from a reference
// list — the bridge from collection-phase structures (single lists,
// range lists) into the combination phase.
func FromRefs(v string, refs []value.Value, st *stats.Counters) *RefRel {
	out := newSized([]string{v}, st, len(refs))
	row := make([]value.Value, 1)
	for _, ref := range refs {
		row[0] = ref
		out.Add(row)
	}
	return out
}

// FromPairs builds a two-column reference relation from an indirect
// join's pairs.
func FromPairs(lv, rv string, pairs [][2]value.Value, st *stats.Counters) *RefRel {
	out := newSized([]string{lv, rv}, st, len(pairs))
	row := make([]value.Value, 2)
	for _, p := range pairs {
		row[0], row[1] = p[0], p[1]
		out.Add(row)
	}
	return out
}

// DistinctOn returns the number of distinct value combinations of the
// named columns, for join-size estimation. Absent columns yield 0.
// Results are memoized until the next Add.
func (r *RefRel) DistinctOn(vars []string) int {
	ck := strings.Join(vars, ",")
	if d, ok := r.distinctCache[ck]; ok {
		return d
	}
	idx := make([]int, len(vars))
	for i, v := range vars {
		j, ok := r.varIdx[v]
		if !ok {
			return 0
		}
		idx[i] = j
	}
	seen := newRowTable(idx, len(r.rows))
	d := 0
	for _, row := range r.rows {
		h := rowHash(row, idx)
		if seen.find(r.rows, h, row, idx) < 0 {
			d++
		}
		seen.push(h)
	}
	if r.distinctCache == nil {
		r.distinctCache = make(map[string]int)
	}
	r.distinctCache[ck] = d
	return d
}

// EstimateJoinSize predicts |a ⋈ b| from the relations' exact sizes and
// the distinct counts of their shared variables: the standard
// |a|·|b|/max(d_a, d_b) equi-join estimate, degenerating to the full
// cross product when no variable is shared. The second result reports
// whether the pair shares variables (a hash join vs a Cartesian
// product).
func EstimateJoinSize(a, b *RefRel) (float64, bool) {
	sv, _, _ := shared(a, b)
	prod := float64(a.Len()) * float64(b.Len())
	if len(sv) == 0 {
		return prod, false
	}
	da, db := a.DistinctOn(sv), b.DistinctOn(sv)
	d := da
	if db > d {
		d = db
	}
	if d == 0 {
		return 0, true // one side empty: the join is empty
	}
	return prod / float64(d), true
}

// SortedKeys renders the tuples as sorted encoded strings; used by tests
// to compare contents order-independently.
func (r *RefRel) SortedKeys() []string {
	keys := make([]string, 0, len(r.rows))
	for _, row := range r.rows {
		keys = append(keys, value.EncodeKey(row))
	}
	sort.Strings(keys)
	return keys
}
