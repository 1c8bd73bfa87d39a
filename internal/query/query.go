// Package query defines the predicate language of the paper (§2.2):
// conjunctions of =, ≠, <, ≤, >, ≥, IN, and BETWEEN filters over
// dictionary-encoded columns, together with an exact executor (ground truth),
// a compiler from conjunctions to per-column valid-value regions (the Ri sets
// consumed by progressive sampling), and the §6.1.3 workload generators.
package query

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Op is a comparison operator.
type Op int

// The supported filter operators. All of them — including IN and BETWEEN —
// compile to subsets of a column's finite domain, which is exactly the
// paper's formulation ("the usual =, ≠, <, ≤, >, ≥ operators, the rectangular
// containment, or even the IN operator are considered ranges").
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIn
	OpBetween
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIn:
		return "IN"
	case OpBetween:
		return "BETWEEN"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Predicate is a single filter on one column, expressed in dictionary-code
// space. Code is the literal; Code2 is the upper bound for BETWEEN; Set holds
// the literals for IN.
type Predicate struct {
	Col   int
	Op    Op
	Code  int32
	Code2 int32
	Set   []int32
}

// Query is a conjunction of predicates. Columns without a predicate are
// wildcards.
type Query struct {
	Preds []Predicate
}

// String renders the query as SQL-ish text against the given table.
func (q Query) String(t *table.Table) string {
	if len(q.Preds) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		col := t.Cols[p.Col]
		switch p.Op {
		case OpIn:
			vals := make([]string, len(p.Set))
			for j, c := range p.Set {
				vals[j] = col.ValueString(c)
			}
			parts[i] = fmt.Sprintf("%s IN (%s)", col.Name, strings.Join(vals, ", "))
		case OpBetween:
			parts[i] = fmt.Sprintf("%s BETWEEN %s AND %s",
				col.Name, col.ValueString(p.Code), col.ValueString(p.Code2))
		default:
			parts[i] = fmt.Sprintf("%s %s %s", col.Name, p.Op, col.ValueString(p.Code))
		}
	}
	return strings.Join(parts, " AND ")
}

// NumFilters returns the number of distinct filtered columns.
func (q Query) NumFilters() int {
	seen := make(map[int]struct{}, len(q.Preds))
	for _, p := range q.Preds {
		seen[p.Col] = struct{}{}
	}
	return len(seen)
}

// ColumnRange is the set Ri ⊆ [0, Di) of codes a column may take under a
// query. Valid is the indicator over the domain, Count its cardinality, and
// [Lo, Hi) the tight interval bounding the true entries (used by interval-
// only estimators such as histograms).
type ColumnRange struct {
	Valid []bool
	Count int
	Lo    int32 // first valid code (domain size if Count == 0)
	Hi    int32 // one past the last valid code (0 if Count == 0)
}

// IsAll reports whether the range admits the whole domain (a wildcard).
func (r *ColumnRange) IsAll() bool { return r.Count == len(r.Valid) }

// IsEmpty reports whether no code satisfies the range.
func (r *ColumnRange) IsEmpty() bool { return r.Count == 0 }

// Region is a query compiled to one ColumnRange per table column. It is the
// cross-product query region R = R1 × ... × Rn of §5.
type Region struct {
	Cols []ColumnRange
}

// Compile lowers a conjunction onto per-column valid sets for t. Unfiltered
// columns get full-domain wildcards, matching the paper's treatment
// ("unfiltered columns are treated as having a wildcard, Ri = [0, Di)").
//
// Unlike CompileDomains, Compile consults the table's dictionaries: on
// columns whose dictionary has been extended by online appends (code order no
// longer value order past Column.Ext), range predicates are evaluated by
// value comparison so arrival-ordered tail codes land on the correct side.
func Compile(q Query, t *table.Table) (*Region, error) {
	return compile(q, t.DomainSizes(), t)
}

// CompileDomains is Compile given only per-column domain sizes — enough for
// an estimator loaded from disk without its training table. Range predicates
// are interpreted purely in code space, which is exact while dictionaries are
// fully sorted.
func CompileDomains(q Query, domains []int) (*Region, error) {
	return compile(q, domains, nil)
}

// CompileSnapshot lowers a conjunction onto the model's domain sizes while
// taking value order from t's dictionaries. It is the serving-path compiler
// for lifecycle estimators: domains is the model's view (literals past it are
// rejected — the model assigns those codes no mass), while t may carry
// arrival-ordered dictionary tails from online appends, where range operators
// must compare by value rather than by code position.
func CompileSnapshot(q Query, domains []int, t *table.Table) (*Region, error) {
	if t == nil {
		return compile(q, domains, nil)
	}
	if len(domains) != t.NumCols() {
		return nil, fmt.Errorf("query: %d model domains over a %d-column snapshot", len(domains), t.NumCols())
	}
	return compile(q, domains, t)
}

func compile(q Query, domains []int, t *table.Table) (*Region, error) {
	reg := &Region{Cols: make([]ColumnRange, len(domains))}
	for i, d := range domains {
		valid := make([]bool, d)
		for j := range valid {
			valid[j] = true
		}
		reg.Cols[i] = ColumnRange{Valid: valid, Count: d, Lo: 0, Hi: int32(d)}
	}
	for _, p := range q.Preds {
		if p.Col < 0 || p.Col >= len(domains) {
			return nil, fmt.Errorf("query: predicate on column %d of %d", p.Col, len(domains))
		}
		if err := checkLiteral(p, int32(domains[p.Col])); err != nil {
			return nil, err
		}
		var less func(a, b int32) bool
		if t != nil && t.Cols[p.Col].Extended() {
			less = t.Cols[p.Col].Less
		}
		applyPredicate(&reg.Cols[p.Col], p, less)
	}
	for i := range reg.Cols {
		reg.Cols[i].recount()
	}
	return reg, nil
}

func checkLiteral(p Predicate, d int32) error {
	inRange := func(c int32) bool { return c >= 0 && c < d }
	switch p.Op {
	case OpIn:
		for _, c := range p.Set {
			if !inRange(c) {
				return fmt.Errorf("query: IN literal code %d outside domain [0,%d)", c, d)
			}
		}
	case OpBetween:
		if !inRange(p.Code) || !inRange(p.Code2) {
			return fmt.Errorf("query: BETWEEN codes (%d,%d) outside domain [0,%d)", p.Code, p.Code2, d)
		}
	default:
		if !inRange(p.Code) {
			return fmt.Errorf("query: literal code %d outside domain [0,%d)", p.Code, d)
		}
	}
	return nil
}

// applyPredicate intersects one predicate into a column range. less, when
// non-nil, supplies the value order for range operators (needed once a
// dictionary carries an arrival-ordered tail); nil means code order is value
// order and plain code comparison applies.
func applyPredicate(r *ColumnRange, p Predicate, less func(a, b int32) bool) {
	if less == nil {
		less = func(a, b int32) bool { return a < b }
	}
	keep := func(code int32) bool {
		switch p.Op {
		case OpEq:
			return code == p.Code
		case OpNe:
			return code != p.Code
		case OpLt:
			return less(code, p.Code)
		case OpLe:
			return !less(p.Code, code)
		case OpGt:
			return less(p.Code, code)
		case OpGe:
			return !less(code, p.Code)
		case OpBetween:
			return !less(code, p.Code) && !less(p.Code2, code)
		case OpIn:
			for _, c := range p.Set {
				if c == code {
					return true
				}
			}
			return false
		}
		return false
	}
	for code := range r.Valid {
		if r.Valid[code] && !keep(int32(code)) {
			r.Valid[code] = false
		}
	}
}

// recount refreshes Count, Lo, and Hi after Valid changed.
func (r *ColumnRange) recount() {
	r.Count = 0
	r.Lo = int32(len(r.Valid))
	r.Hi = 0
	for code, ok := range r.Valid {
		if !ok {
			continue
		}
		r.Count++
		if int32(code) < r.Lo {
			r.Lo = int32(code)
		}
		r.Hi = int32(code) + 1
	}
}

// Size returns the number of discrete points in the query region, Π|Ri|
// (Table 6's "query region" column). float64 because it overflows int64.
func (r *Region) Size() float64 {
	p := 1.0
	for i := range r.Cols {
		p *= float64(r.Cols[i].Count)
	}
	return p
}

// IsEmpty reports whether any column's range is empty, which forces
// selectivity zero.
func (r *Region) IsEmpty() bool {
	for i := range r.Cols {
		if r.Cols[i].Count == 0 {
			return true
		}
	}
	return false
}

// Intersect returns the per-column intersection of two regions over the same
// table; it is the building block of the inclusion–exclusion treatment of
// disjunctions (§2.2).
func (r *Region) Intersect(other *Region) *Region {
	if len(r.Cols) != len(other.Cols) {
		panic("query: Intersect over different tables")
	}
	out := &Region{Cols: make([]ColumnRange, len(r.Cols))}
	for i := range r.Cols {
		a, b := &r.Cols[i], &other.Cols[i]
		valid := make([]bool, len(a.Valid))
		for c := range valid {
			valid[c] = a.Valid[c] && b.Valid[c]
		}
		out.Cols[i] = ColumnRange{Valid: valid}
		out.Cols[i].recount()
	}
	return out
}

// Matches reports whether a tuple of codes falls inside the region.
func (r *Region) Matches(row []int32) bool {
	for i := range r.Cols {
		if !r.Cols[i].Valid[row[i]] {
			return false
		}
	}
	return true
}
