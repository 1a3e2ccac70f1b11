package collection

import "pascalr/internal/value"

// keyMap is the one key rule every collection structure hashes values
// by. The first int-backed value a map receives fixes its ordinal sort:
// the value's kind and, for enumerations, its type name. Values of that
// sort key by their Ord payload in a map[int64]; every other value —
// strings, and values of any other kind or enumeration type — keys by
// the value.Value itself, which is comparable and equal exactly when
// value.Equal holds. Either way no key string is built, and a lookup
// matches exactly the values value.Equal matches: an integer never finds
// an enumeration with the same ordinal, nor one enumeration type
// another's.
//
// A structure normally holds one column's values, so everything lands
// in the ordinal map (or, for a string column, the value map).
type keyMap[T any] struct {
	kind value.Kind // ordinal sort; meaningful once ords is non-nil
	enum string
	ords map[int64]T
	vals map[value.Value]T
	hint int // expected entries, sizing the first map allocated
}

// isOrd reports whether v is of the map's ordinal sort.
func (m *keyMap[T]) isOrd(v value.Value) bool {
	k, enum := v.Kind(), ""
	if k == value.KindEnum {
		enum = v.EnumType()
	}
	return m.ordsFor(k, enum) != nil
}

// ordsFor returns the ordinal map when k (with enumeration type enum)
// is the map's ordinal sort, else nil: a column of another sort has no
// ordinal keys here.
func (m *keyMap[T]) ordsFor(k value.Kind, enum string) map[int64]T {
	if m.ords == nil || k != m.kind || (k == value.KindEnum && enum != m.enum) {
		return nil
	}
	return m.ords
}

func (m *keyMap[T]) get(v value.Value) (T, bool) {
	var t T
	var ok bool
	if m.isOrd(v) {
		t, ok = m.ords[v.Ord()]
	} else {
		t, ok = m.vals[v]
	}
	return t, ok
}

func (m *keyMap[T]) put(v value.Value, t T) {
	if m.ords == nil && value.OrdKind(v.Kind()) {
		m.kind = v.Kind()
		if m.kind == value.KindEnum {
			m.enum = v.EnumType()
		}
		m.ords = make(map[int64]T, m.hint)
	}
	if m.isOrd(v) {
		m.ords[v.Ord()] = t
		return
	}
	if m.vals == nil {
		m.vals = make(map[value.Value]T, m.hint)
	}
	m.vals[v] = t
}

// insert adds v to a set-valued map (T = struct{}) and reports whether
// it was absent, with one hash operation instead of a lookup and a
// store.
func (m *keyMap[T]) insert(v value.Value) bool {
	n := m.len()
	var zero T
	m.put(v, zero)
	return m.len() > n
}

func (m *keyMap[T]) len() int { return len(m.ords) + len(m.vals) }

// merge puts every entry of o into m; an empty m takes over o's maps,
// so o must not be used afterwards.
func (m *keyMap[T]) merge(o *keyMap[T]) {
	if m.len() == 0 {
		*m = *o
		return
	}
	for k, t := range o.ords {
		m.put(value.MakeOrd(o.kind, k, o.enum), t)
	}
	for v, t := range o.vals {
		m.put(v, t)
	}
}
