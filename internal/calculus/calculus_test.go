package calculus

import (
	"strings"
	"testing"

	"pascalr/internal/schema"
	"pascalr/internal/value"
)

// testCatalog builds the Figure 1 catalog of the paper.
func testCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	st, err := schema.EnumType("statustype", "student", "technician", "assistant", "professor")
	if err != nil {
		t.Fatal(err)
	}
	lt, err := schema.EnumType("leveltype", "freshman", "sophomore", "junior", "senior")
	if err != nil {
		t.Fatal(err)
	}
	cat.DefineType(st)
	cat.DefineType(lt)
	enr := schema.IntType("enumbertype", 1, 99)
	cnr := schema.IntType("cnumbertype", 1, 99)
	cat.DefineRelation(schema.MustRelSchema("employees", []schema.Column{
		{Name: "enr", Type: enr},
		{Name: "ename", Type: schema.StringType("nametype", 10)},
		{Name: "estatus", Type: st},
	}, []string{"enr"}))
	cat.DefineRelation(schema.MustRelSchema("papers", []schema.Column{
		{Name: "penr", Type: enr},
		{Name: "pyear", Type: schema.IntType("yeartype", 1900, 1999)},
		{Name: "ptitle", Type: schema.StringType("titletype", 40)},
	}, []string{"ptitle", "penr"}))
	cat.DefineRelation(schema.MustRelSchema("courses", []schema.Column{
		{Name: "cnr", Type: cnr},
		{Name: "clevel", Type: lt},
		{Name: "ctitle", Type: schema.StringType("titletype", 40)},
	}, []string{"cnr"}))
	cat.DefineRelation(schema.MustRelSchema("timetable", []schema.Column{
		{Name: "tenr", Type: enr},
		{Name: "tcnr", Type: cnr},
		{Name: "tday", Type: schema.IntType("daytype", 1, 5)},
	}, []string{"tenr", "tcnr", "tday"}))
	return cat
}

// paperSelection builds Example 2.1 of the paper.
func paperSelection() *Selection {
	return &Selection{
		Proj: []Field{{Var: "e", Col: "ename"}},
		Free: []Decl{{Var: "e", Range: &RangeExpr{Rel: "employees"}}},
		Pred: NewAnd(
			&Cmp{L: Field{"e", "estatus"}, Op: value.OpEq, R: Label{"professor"}},
			NewOr(
				&Quant{All: true, Var: "p", Range: &RangeExpr{Rel: "papers"},
					Body: NewOr(
						&Cmp{L: Field{"p", "pyear"}, Op: value.OpNe, R: Const{value.Int(1977)}},
						&Cmp{L: Field{"e", "enr"}, Op: value.OpNe, R: Field{"p", "penr"}},
					)},
				&Quant{Var: "c", Range: &RangeExpr{Rel: "courses"},
					Body: NewAnd(
						&Cmp{L: Field{"c", "clevel"}, Op: value.OpLe, R: Label{"sophomore"}},
						&Quant{Var: "t", Range: &RangeExpr{Rel: "timetable"},
							Body: NewAnd(
								&Cmp{L: Field{"c", "cnr"}, Op: value.OpEq, R: Field{"t", "tcnr"}},
								&Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Field{"t", "tenr"}},
							)},
					)},
			),
		),
	}
}

func TestNewAndNewOr(t *testing.T) {
	a := &Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Const{value.Int(1)}}
	b := &Cmp{L: Field{"e", "enr"}, Op: value.OpNe, R: Const{value.Int(2)}}

	if got := NewAnd(); got.String() != "TRUE" {
		t.Errorf("empty AND = %s", got)
	}
	if got := NewOr(); got.String() != "FALSE" {
		t.Errorf("empty OR = %s", got)
	}
	if got := NewAnd(a); got != a {
		t.Errorf("singleton AND not collapsed")
	}
	if got := NewAnd(a, &Lit{Val: true}, b); len(got.(*And).Fs) != 2 {
		t.Errorf("TRUE not dropped from AND: %s", got)
	}
	if got := NewAnd(a, &Lit{Val: false}); got.String() != "FALSE" {
		t.Errorf("AND with FALSE = %s", got)
	}
	if got := NewOr(a, &Lit{Val: true}); got.String() != "TRUE" {
		t.Errorf("OR with TRUE = %s", got)
	}
	if got := NewOr(a, &Lit{Val: false}, b); len(got.(*Or).Fs) != 2 {
		t.Errorf("FALSE not dropped from OR: %s", got)
	}
	// Flattening.
	nested := NewAnd(NewAnd(a, b), a)
	if len(nested.(*And).Fs) != 3 {
		t.Errorf("nested AND not flattened: %s", nested)
	}
}

func TestPrinting(t *testing.T) {
	sel := paperSelection()
	s := sel.String()
	for _, want := range []string{
		"[<e.ename> OF EACH e IN employees:",
		"e.estatus = professor",
		"ALL p IN papers",
		"SOME c IN courses",
		"SOME t IN timetable",
		"p.pyear <> 1977",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("selection printout missing %q in:\n%s", want, s)
		}
	}
	// Precedence: OR inside AND gets parenthesized.
	or := NewOr(
		&Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Const{value.Int(1)}},
		&Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Const{value.Int(2)}},
	)
	and := NewAnd(&Cmp{L: Field{"e", "enr"}, Op: value.OpGt, R: Const{value.Int(0)}}, or)
	if got := and.String(); !strings.Contains(got, "(e.enr = 1 OR e.enr = 2)") {
		t.Errorf("OR not parenthesized inside AND: %s", got)
	}
	not := &Not{F: or}
	if got := not.String(); !strings.HasPrefix(got, "NOT (") {
		t.Errorf("NOT of OR not parenthesized: %s", got)
	}
	// Extended range printing.
	r := &RangeExpr{Rel: "courses", FilterVar: "c",
		Filter: &Cmp{L: Field{"c", "clevel"}, Op: value.OpLe, R: Const{value.Enum("leveltype", 1)}}}
	if got := r.String(); !strings.HasPrefix(got, "[EACH c IN courses:") {
		t.Errorf("extended range printout: %s", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	sel := paperSelection()
	cp := CloneSelection(sel)
	if cp.String() != sel.String() {
		t.Fatalf("clone differs:\n%s\n%s", cp, sel)
	}
	// Mutate the clone; original must not change.
	cp.Pred.(*And).Fs[0] = &Lit{Val: false}
	if cp.String() == sel.String() {
		t.Errorf("clone shares structure with original")
	}
}

func TestVarsOfCmp(t *testing.T) {
	dy := &Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Field{"t", "tenr"}}
	if v1, v2, ok := Dyadic(dy); !ok || v1 != "e" || v2 != "t" {
		t.Errorf("Dyadic = %s,%s,%v", v1, v2, ok)
	}
	if _, ok := Monadic(dy); ok {
		t.Errorf("dyadic term classified monadic")
	}
	mo := &Cmp{L: Field{"e", "enr"}, Op: value.OpNe, R: Field{"e", "enr"}}
	if v, ok := Monadic(mo); !ok || v != "e" {
		t.Errorf("Monadic(two fields same var) = %s,%v", v, ok)
	}
	co := &Cmp{L: Const{value.Int(1)}, Op: value.OpEq, R: Const{value.Int(1)}}
	if vars := VarsOfCmp(co); len(vars) != 0 {
		t.Errorf("constant term has vars %v", vars)
	}
}

func TestFreeVarsAndAllVars(t *testing.T) {
	sel := paperSelection()
	free := FreeVars(sel.Pred)
	if len(free) != 1 || free[0] != "e" {
		t.Errorf("FreeVars = %v", free)
	}
	all := AllVars(sel.Pred)
	if len(all) != 4 {
		t.Errorf("AllVars = %v", all)
	}
	if QuantCount(sel.Pred) != 3 {
		t.Errorf("QuantCount = %d", QuantCount(sel.Pred))
	}
	if !HasUniversal(sel.Pred) {
		t.Errorf("HasUniversal = false")
	}
	someOnly := &Quant{Var: "x", Range: &RangeExpr{Rel: "r"}, Body: &Lit{Val: true}}
	if HasUniversal(someOnly) {
		t.Errorf("HasUniversal on SOME = true")
	}
}

func TestFreeVarsRangeFilterIsolation(t *testing.T) {
	// The filter variable of an extended range is bound locally, not free.
	q := &Quant{Var: "c", Range: &RangeExpr{
		Rel: "courses", FilterVar: "k",
		Filter: &Cmp{L: Field{"k", "clevel"}, Op: value.OpLe, R: Const{value.Enum("leveltype", 1)}},
	}, Body: &Cmp{L: Field{"c", "cnr"}, Op: value.OpEq, R: Field{"e", "enr"}}}
	free := FreeVars(q)
	if len(free) != 1 || free[0] != "e" {
		t.Errorf("FreeVars = %v, want [e]", free)
	}
}

func TestRenameVar(t *testing.T) {
	sel := paperSelection()
	renamed := RenameVar(sel.Pred, "p", "p1")
	if strings.Contains(renamed.String(), "p.") {
		t.Errorf("rename left p behind: %s", renamed)
	}
	if !strings.Contains(renamed.String(), "ALL p1 IN papers") {
		t.Errorf("quantifier not renamed: %s", renamed)
	}
	// Original untouched.
	if !strings.Contains(sel.Pred.String(), "ALL p IN papers") {
		t.Errorf("rename mutated original")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	sel := paperSelection()
	n := 0
	Walk(sel.Pred, func(Formula) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("walk visited %d nodes", n)
	}
}

func TestCheckResolvesLabelsAndTypes(t *testing.T) {
	cat := testCatalog(t)
	sel := paperSelection()
	checked, info, err := Check(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Labels resolved to enum constants.
	if strings.Contains(checked.String(), "professor") {
		t.Errorf("label not resolved: %s", checked)
	}
	if !strings.Contains(checked.String(), "statustype#3") {
		t.Errorf("professor should resolve to statustype#3: %s", checked)
	}
	// Scope info.
	if info.VarRel["e"].Name != "employees" || info.VarRel["t"].Name != "timetable" {
		t.Errorf("VarRel = %v", info.VarRel)
	}
	// Result schema: single ename column, key on it.
	if len(info.Result.Cols) != 1 || info.Result.Cols[0].Name != "ename" {
		t.Errorf("result schema = %v", info.Result)
	}
	// Original selection unmodified (labels still there).
	if !strings.Contains(sel.String(), "professor") {
		t.Errorf("Check mutated input")
	}
}

func TestCheckErrors(t *testing.T) {
	cat := testCatalog(t)
	base := func() *Selection { return paperSelection() }

	cases := []struct {
		name   string
		mutate func(*Selection)
		want   string
	}{
		{"no projection", func(s *Selection) { s.Proj = nil }, "no component selection"},
		{"no free vars", func(s *Selection) { s.Free = nil }, "no free variables"},
		{"unknown relation", func(s *Selection) { s.Free[0].Range.Rel = "nobody" }, "unknown range relation"},
		{"unknown column", func(s *Selection) { s.Proj[0].Col = "nope" }, "no component"},
		{"project quantified var", func(s *Selection) { s.Proj[0].Var = "p" }, "not a free variable"},
		{"type mismatch", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Field{"e", "ename"}}
		}, "compares"},
		{"type mismatch: int vs string constant", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "enr"}, Op: value.OpEq, R: Const{value.String_("x")}}
		}, "compares"},
		{"type mismatch: string constant vs int", func(s *Selection) {
			s.Pred = &Cmp{L: Const{value.String_("x")}, Op: value.OpLt, R: Field{"e", "enr"}}
		}, "compares"},
		{"type mismatch: int vs bool constant", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "enr"}, Op: value.OpNe, R: Const{value.Bool(true)}}
		}, "compares"},
		{"type mismatch: enum vs int field", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "estatus"}, Op: value.OpEq, R: Field{"e", "enr"}}
		}, "compares"},
		{"type mismatch: enum vs other enum field", func(s *Selection) {
			s.Pred = &Quant{Var: "c", Range: &RangeExpr{Rel: "courses"},
				Body: &Cmp{L: Field{"e", "estatus"}, Op: value.OpLe, R: Field{"c", "clevel"}}}
		}, "compares"},
		{"label against string field", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "ename"}, Op: value.OpEq, R: Label{"professor"}}
		}, "compares"},
		{"label not in enum type", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "estatus"}, Op: value.OpEq, R: Label{"sophomore"}}
		}, "not a label"},
		{"unknown bare label", func(s *Selection) {
			s.Pred = &Cmp{L: Label{"ghost"}, Op: value.OpEq, R: Label{"phantom"}}
		}, "cannot resolve"},
		{"out of scope", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"z", "enr"}, Op: value.OpEq, R: Const{value.Int(1)}}
		}, "outside its scope"},
		{"shadowing", func(s *Selection) {
			s.Pred = &Quant{Var: "e", Range: &RangeExpr{Rel: "papers"}, Body: &Lit{Val: true}}
		}, "declared twice"},
		{"enum cross-type", func(s *Selection) {
			s.Pred = &Cmp{L: Field{"e", "estatus"}, Op: value.OpEq, R: Const{value.Enum("leveltype", 0)}}
		}, "compares"},
	}
	for _, tc := range cases {
		sel := base()
		tc.mutate(sel)
		_, _, err := Check(sel, cat)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckExtendedRange(t *testing.T) {
	cat := testCatalog(t)
	sel := &Selection{
		Proj: []Field{{Var: "c", Col: "ctitle"}},
		Free: []Decl{{Var: "c", Range: &RangeExpr{
			Rel: "courses", FilterVar: "c",
			Filter: &Cmp{L: Field{"c", "clevel"}, Op: value.OpLe, R: Label{"sophomore"}},
		}}},
	}
	checked, _, err := Check(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(checked.String(), "sophomore") {
		t.Errorf("range filter label not resolved: %s", checked)
	}

	// Range filters must be quantifier-free.
	bad := &Selection{
		Proj: []Field{{Var: "c", Col: "ctitle"}},
		Free: []Decl{{Var: "c", Range: &RangeExpr{
			Rel: "courses", FilterVar: "c",
			Filter: &Quant{Var: "t", Range: &RangeExpr{Rel: "timetable"}, Body: &Lit{Val: true}},
		}}},
	}
	if _, _, err := Check(bad, cat); err == nil {
		t.Errorf("quantified range filter accepted")
	}
}

func TestCheckDuplicateProjectionNaming(t *testing.T) {
	cat := testCatalog(t)
	// Two different vars, same column name: var_col naming kicks in.
	sel := &Selection{
		Proj: []Field{{Var: "a", Col: "enr"}, {Var: "b", Col: "enr"}},
		Free: []Decl{
			{Var: "a", Range: &RangeExpr{Rel: "employees"}},
			{Var: "b", Range: &RangeExpr{Rel: "employees"}},
		},
	}
	_, info, err := Check(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result.Cols[0].Name != "a_enr" || info.Result.Cols[1].Name != "b_enr" {
		t.Errorf("result columns = %v", info.Result.Cols)
	}
}

func TestEqual(t *testing.T) {
	a := paperSelection().Pred
	b := paperSelection().Pred
	if !Equal(a, b) {
		t.Errorf("identical formulas unequal")
	}
	if Equal(a, &Lit{Val: true}) {
		t.Errorf("different formulas equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Errorf("nil handling wrong")
	}
}
