// Package neurocard lifts the single-table Naru estimator to a join schema,
// following NeuroCard (Yang et al. 2020; see PAPERS.md): ONE autoregressive
// model is trained over the full join of an acyclic multi-way equi-join
// schema, from streaming unbiased join-tuple samples, and answers multi-table
// cardinalities without per-join models.
//
// The sampler walks a join tree rooted at the schema's first table, drawing
// join tuples without materializing the join. Alongside the base columns, the
// sampler emits one virtual "fanout" column per join edge — the number of
// child rows matching the tuple's join key — and the estimator downscales
// each sampled tuple's probability by the inverse fanouts of every edge
// outside the query's spanned subtree, which makes sub-join estimates
// unbiased (the telescoping construction of NeuroCard §5.2).
//
// Scope: inner joins. A query must predicate tables whose minimal connected
// subtree contains the root; its estimate counts
// sub-join tuples that participate in the full join, which equals the true
// sub-join cardinality whenever the excluded join keys are lossless (no
// dangling parent rows) — the referential setup of the examples and tests.
// Join-key columns are excluded from the model (NeuroCard's key-column
// pruning): they are not predicable, and the fanout columns carry all the
// join structure the estimator needs.
package neurocard

import (
	"fmt"

	"repro/internal/table"
)

// Edge is one equi-join of the schema tree: Parent.Cols[ParentCol] =
// Child.Cols[ChildCol], with Parent nearer the root.
type Edge struct {
	Parent, Child       int // table indices into Schema.Tables
	ParentCol, ChildCol int // join-key column indices
}

// Schema is an acyclic multi-way equi-join: tables plus a tree of join edges
// rooted at Tables[0]. Tables are referenced by index; Names mirrors
// Tables[i].Name for display and query parsing.
type Schema struct {
	Tables []*table.Table
	Edges  []Edge
}

// Validate checks the tree shape: every edge's endpoints and key columns are
// in range, key kinds agree, each non-root table is the child of exactly one
// edge, the root is no edge's child, and every table is reachable from the
// root.
func (s *Schema) Validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("neurocard: schema has no tables")
	}
	if len(s.Edges) != len(s.Tables)-1 {
		return fmt.Errorf("neurocard: %d tables need %d join edges, have %d",
			len(s.Tables), len(s.Tables)-1, len(s.Edges))
	}
	childOf := make([]int, len(s.Tables))
	for i := range childOf {
		childOf[i] = -1
	}
	for ei, e := range s.Edges {
		for _, ti := range []int{e.Parent, e.Child} {
			if ti < 0 || ti >= len(s.Tables) {
				return fmt.Errorf("neurocard: edge %d references table %d of %d", ei, ti, len(s.Tables))
			}
		}
		if e.Parent == e.Child {
			return fmt.Errorf("neurocard: edge %d is a self-join", ei)
		}
		pt, ct := s.Tables[e.Parent], s.Tables[e.Child]
		if e.ParentCol < 0 || e.ParentCol >= pt.NumCols() || e.ChildCol < 0 || e.ChildCol >= ct.NumCols() {
			return fmt.Errorf("neurocard: edge %d join column out of range", ei)
		}
		if pt.Cols[e.ParentCol].Kind != ct.Cols[e.ChildCol].Kind {
			return fmt.Errorf("neurocard: edge %d joins %v key to %v key",
				ei, pt.Cols[e.ParentCol].Kind, ct.Cols[e.ChildCol].Kind)
		}
		if e.Child == 0 {
			return fmt.Errorf("neurocard: edge %d makes the root a child", ei)
		}
		if childOf[e.Child] != -1 {
			return fmt.Errorf("neurocard: table %d is the child of two edges", e.Child)
		}
		childOf[e.Child] = ei
	}
	// Reachability from the root via parent->child edges.
	seen := make([]bool, len(s.Tables))
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, e := range s.Edges {
			if e.Parent == t && !seen[e.Child] {
				seen[e.Child] = true
				queue = append(queue, e.Child)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("neurocard: table %d (%s) unreachable from the root", i, s.Tables[i].Name)
		}
	}
	return nil
}

// isKeyCol reports whether table ti's column ci is a join key of any edge.
func (s *Schema) isKeyCol(ti, ci int) bool {
	for _, e := range s.Edges {
		if (e.Parent == ti && e.ParentCol == ci) || (e.Child == ti && e.ChildCol == ci) {
			return true
		}
	}
	return false
}

// LayoutCol describes one model column of the joined layout: a base column
// (Edge < 0) identified by (Table, Col), or the virtual fanout column of
// Edges[Edge].
type LayoutCol struct {
	Table, Col int
	Edge       int
}

// Layout is the model-facing column order over the join: per table in root
// BFS order, its non-key base columns, followed by the fanout columns of the
// edges it parents. Putting an edge's fanout right after its parent's base
// columns keeps scaled sampling walks as short as possible.
type Layout struct {
	Cols  []LayoutCol
	Names []string // "table.column" for base, "fanout(parent→child)" for edges
}

// bfsOrder returns the tables in breadth-first order from the root, plus the
// edge indices parented at each table. Assumes a validated schema.
func (s *Schema) bfsOrder() (order []int, edgesAt [][]int) {
	edgesAt = make([][]int, len(s.Tables))
	for ei, e := range s.Edges {
		edgesAt[e.Parent] = append(edgesAt[e.Parent], ei)
	}
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		for _, ei := range edgesAt[order[qi]] {
			order = append(order, s.Edges[ei].Child)
		}
	}
	return order, edgesAt
}

// buildLayout derives the model column order from a validated schema.
func (s *Schema) buildLayout() Layout {
	var lay Layout
	order, edgesAt := s.bfsOrder()
	for _, ti := range order {
		t := s.Tables[ti]
		for ci := range t.Cols {
			if s.isKeyCol(ti, ci) {
				continue
			}
			lay.Cols = append(lay.Cols, LayoutCol{Table: ti, Col: ci, Edge: -1})
			lay.Names = append(lay.Names, t.Name+"."+t.Cols[ci].Name)
		}
		for _, ei := range edgesAt[ti] {
			e := s.Edges[ei]
			lay.Cols = append(lay.Cols, LayoutCol{Table: -1, Col: -1, Edge: ei})
			lay.Names = append(lay.Names,
				fmt.Sprintf("fanout(%s→%s)", s.Tables[e.Parent].Name, s.Tables[e.Child].Name))
		}
	}
	return lay
}
