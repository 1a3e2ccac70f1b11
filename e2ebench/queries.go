package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// scale is the university size every workload loads: 2,000 employees,
// 4,000 papers, 1,001 courses and 4,000 timetable rows from generator
// seed 42. The committed digests hold for this scale only.
const scale = 2000

// The paper's query shapes (bench_test.go builds them as calculus
// trees), written as query text so they pass through the parser.
const (
	qExample21 = `[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND
  (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
   OR SOME c IN courses ((c.clevel <= sophomore)
     AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]`
	qJoinHeavy = `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
  (e.estatus = professor) AND (c.clevel <= sophomore) AND (e.enr = t.tenr) AND (c.cnr = t.tcnr)]`
	qDisjunctive = `[<e.ename> OF EACH e IN employees:
  SOME t IN timetable (((t.tday = monday) OR (t.tday = friday)) AND (e.enr = t.tenr))]`
	qExample32 = `[<c.cnr, t.tenr, t.tday> OF EACH c IN courses, EACH t IN timetable:
  (c.clevel <= sophomore) AND (c.cnr = t.tcnr)]`
	// The whole timetable, 4,000 rows: the served workload's report,
	// checked against the generator's tuples.
	qTimetable = `[<t.tenr, t.tcnr, t.tday, t.ttime, t.troom> OF EACH t IN timetable: t.tenr >= 1]`
	// The selective band scan of BenchmarkBatchScan at n = 2000.
	qBand = `[<t.tcnr, t.troom> OF EACH t IN timetable:
  (t.tenr >= 40) AND (t.tenr < 1960) AND (t.ttime >= 8500900) AND (t.ttime < 17500900) AND
  (t.tenr >= 200) AND (t.tenr < 1800) AND (t.ttime >= 9000900) AND (t.ttime < 17000900) AND
  (t.tenr >= 1000) AND (t.tenr < 1008)]`
)

// paperQueries maps each digest name to its query text. The static and
// the cost-based run of the join share the "joinheavy" digest.
var paperQueries = map[string]string{
	"example21":   qExample21,
	"joinheavy":   qJoinHeavy,
	"disjunctive": qDisjunctive,
	"example32":   qExample32,
	"band":        qBand,
}

// digestsJSON holds the digest of every paper query's result, computed
// once with the tuple-substitution oracle (pascalr.WithBaseline) by
// `go run . -write-digests`. At scale 2000 the oracle needs minutes, so
// runs compare against this file instead.
//
//go:embed digests.json
var digestsJSON []byte

func committedDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	for name := range paperQueries {
		if d[name] == "" {
			return nil, fmt.Errorf("digests.json: no digest for %s", name)
		}
	}
	return d, nil
}

// digest summarizes a result as its row count and the wrapping sum of
// per-row FNV-1a hashes. It is independent of row order, so no result
// is sorted to check it, and it costs one pass over the values.
func digest(rows [][]any) string {
	var sum uint64
	h := fnv.New64a()
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			switch x := v.(type) {
			case int64:
				buf = strconv.AppendInt(buf, x, 10)
			case string:
				buf = append(buf, x...)
			case bool:
				buf = strconv.AppendBool(buf, x)
			default:
				buf = fmt.Append(buf, x)
			}
			buf = append(buf, 0x1f)
		}
		h.Reset()
		h.Write(buf)
		sum += h.Sum64()
	}
	return fmt.Sprintf("%d:%016x", len(rows), sum)
}

// oracle answers the ad hoc selections from the generator's own tuples,
// independently of the database under test.
type oracle struct {
	employees map[int64][]any   // enr -> <ename, estatus>
	courses   map[int64][]any   // cnr -> <ctitle, clevel>
	timetable map[int64][][]any // tenr -> <tcnr, tday> rows
	report    string            // digest of the whole timetable
	userBytes int64             // declared width of every generated row
}

// rowWidth is the declared byte width of one row of each relation:
// 8 per integer, 1 per enumeration, n per PACKED ARRAY [1..n] OF char.
// Storage and memory amplification divide by these widths.
var rowWidth = map[string]int64{
	"employees": 8 + 10 + 1,
	"papers":    8 + 8 + 40,
	"courses":   8 + 1 + 40,
	"timetable": 8 + 8 + 1 + 8 + 5,
}

func newOracle() (*oracle, error) {
	db, err := workload.University(workload.DefaultConfig(scale))
	if err != nil {
		return nil, err
	}
	o := &oracle{employees: map[int64][]any{}, courses: map[int64][]any{}, timetable: map[int64][][]any{}}
	native := func(v value.Value) any {
		switch v.Kind() {
		case value.KindInt:
			return v.AsInt()
		case value.KindEnum:
			t, _ := db.Catalog().Type(v.EnumType())
			return t.Label(v.EnumOrd())
		default:
			return v.AsString()
		}
	}
	for name, w := range rowWidth {
		rel, ok := db.Relation(name)
		if !ok {
			return nil, fmt.Errorf("generator has no relation %s", name)
		}
		o.userBytes += w * int64(rel.Len())
	}
	each := func(name string, f func(t []value.Value)) {
		rel, _ := db.Relation(name)
		for _, t := range rel.Tuples() {
			f(t)
		}
	}
	each("employees", func(t []value.Value) { o.employees[t[0].AsInt()] = []any{native(t[1]), native(t[2])} })
	each("courses", func(t []value.Value) { o.courses[t[0].AsInt()] = []any{native(t[2]), native(t[1])} })
	var report [][]any
	each("timetable", func(t []value.Value) {
		o.timetable[t[0].AsInt()] = append(o.timetable[t[0].AsInt()], []any{native(t[1]), native(t[2])})
		report = append(report, []any{native(t[0]), native(t[1]), native(t[2]), native(t[3]), native(t[4])})
	})
	o.report = digest(report)
	return o, nil
}

// adhoc is one ad hoc selection with a fresh literal and the digest its
// result must have. Distinct literals make each text new to the plan
// cache until its literal repeats.
type adhoc struct {
	template string
	src      string
	want     string
}

func (o *oracle) adhoc(template string, rng *rand.Rand) adhoc {
	switch template {
	case "adhoc_employee":
		k := 1 + rng.Int63n(scale)
		return adhoc{template, fmt.Sprintf("[<e.ename, e.estatus> OF EACH e IN employees: e.enr = %d]", k),
			digest(single(o.employees[k]))}
	case "adhoc_timetable":
		k := 1 + rng.Int63n(scale)
		return adhoc{template, fmt.Sprintf("[<t.tcnr, t.tday> OF EACH t IN timetable: t.tenr = %d]", k),
			digest(o.timetable[k])}
	case "adhoc_course":
		k := 1 + rng.Int63n(int64(len(o.courses)))
		return adhoc{template, fmt.Sprintf("[<c.ctitle, c.clevel> OF EACH c IN courses: c.cnr = %d]", k),
			digest(single(o.courses[k]))}
	}
	panic("unknown ad hoc template " + template)
}

func single(row []any) [][]any {
	if row == nil {
		return nil
	}
	return [][]any{row}
}

// mix is a weighted choice over statement templates.
type mix struct {
	names  []string
	cum    []int
	weight map[string]int
}

func newMix(weights map[string]int) *mix {
	m := &mix{weight: weights}
	for name := range weights {
		m.names = append(m.names, name)
	}
	sort.Strings(m.names) // map order must not leak into the seeded stream
	total := 0
	for _, name := range m.names {
		total += weights[name]
		m.cum = append(m.cum, total)
	}
	return m
}

func (m *mix) pick(rng *rand.Rand) string {
	x := rng.Intn(m.cum[len(m.cum)-1])
	i := sort.SearchInts(m.cum, x+1)
	return m.names[i]
}

// share returns the template's probability in the mix.
func (m *mix) share(name string) float64 {
	return float64(m.weight[name]) / float64(m.cum[len(m.cum)-1])
}
