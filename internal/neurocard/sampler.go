package neurocard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/table"
)

// Join-sampler metric families (Prometheus names).
const (
	metricSamplerTuples  = "naru_join_sampler_tuples_total"
	metricSamplerRate    = "naru_join_sampler_rows_per_sec"
	metricJoinSize       = "naru_join_size"
	metricFanoutMax      = "naru_join_fanout_max"
	metricFanoutMean     = "naru_join_fanout_mean"
	metricFanoutDomain   = "naru_join_fanout_domain"
	metricSamplerTables  = "naru_join_tables"
	metricSamplerColumns = "naru_join_model_columns"
)

// edgeState is the per-edge machinery of the streaming sampler: the
// parent-to-child key-code translation and the child row index, with subtree
// weights so multi-way draws stay exactly uniform over the full join.
type edgeState struct {
	cmap []int32   // parent key code -> child key code (-1: no match)
	rows [][]int32 // child rows per child key code

	// cum[cc] holds the cumulative subtree weights of rows[cc]: cum[cc][i] =
	// Σ_{j<i} W_child[rows[cc][j]], one entry longer than rows[cc]. Drawing a
	// child row proportional to its subtree weight is a binary search here.
	cum       [][]int64
	subByCode []int64 // total subtree weight per child key code

	// Fanout column: the number of PARTICIPATING child rows per parent key
	// code — child rows whose own subtree weight is positive. On
	// referentially complete data this equals the raw match count; counting
	// only participating rows keeps the telescoping downscale exact when
	// deeper tables have dangling keys (the inner-join analogue of
	// NeuroCard's outer-join NULL handling).
	fan     []int64   // per parent key code: fanout value (0: never sampled)
	fanCode []int32   // per parent key code: dictionary code of the value
	fanVals []int64   // sorted distinct fanout values (the column dictionary)
	fanInv  []float64 // 1/value per dictionary code
}

// Sampler draws exactly-uniform tuples from the unmaterialized multi-way
// join and emits the per-edge fanout columns alongside the base columns.
// Construction is O(Σ rows + Σ domains); each draw is O(Σ_edges log rows).
// Draw is not safe for concurrent use; Fill/Batch are (they own their
// scratch), as long as the schema's tables are not mutated.
type Sampler struct {
	schema  *Schema
	layout  Layout
	domains []int
	order   []int   // tables in BFS order from the root
	edgesAt [][]int // edge indices parented at each table
	edges   []*edgeState
	weights [][]int64 // subtree weight per table row
	rootCum []int64   // cumulative root weights for the first draw
	total   int64

	rowScratch []int32 // Draw's per-table chosen rows

	tuples *obs.Counter // nil without Observe
	rate   *obs.Gauge
}

// NewSampler validates the schema and builds the streaming join sampler.
func NewSampler(sch *Schema) (*Sampler, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	s := &Sampler{schema: sch, layout: sch.buildLayout()}
	s.order, s.edgesAt = sch.bfsOrder()
	s.edges = make([]*edgeState, len(sch.Edges))
	s.weights = make([][]int64, len(sch.Tables))

	// Bottom-up pass in reverse BFS order: a table's per-row subtree weight
	// is the product over its child edges of the matching rows' subtree
	// weights; the root's weights then enumerate the full join.
	for oi := len(s.order) - 1; oi >= 0; oi-- {
		ti := s.order[oi]
		t := sch.Tables[ti]
		w := make([]int64, t.NumRows())
		for r := range w {
			w[r] = 1
		}
		for _, ei := range s.edgesAt[ti] {
			es, err := s.buildEdge(sch.Edges[ei])
			if err != nil {
				return nil, err
			}
			s.edges[ei] = es
			keys := t.Cols[sch.Edges[ei].ParentCol].Codes
			for r := range w {
				if cc := es.cmap[keys[r]]; cc >= 0 {
					w[r] *= es.subByCode[cc]
				} else {
					w[r] = 0
				}
			}
		}
		s.weights[ti] = w
	}
	root := sch.Tables[0]
	s.rootCum = make([]int64, root.NumRows()+1)
	for r := 0; r < root.NumRows(); r++ {
		s.rootCum[r+1] = s.rootCum[r] + s.weights[0][r]
	}
	s.total = s.rootCum[root.NumRows()]
	if s.total == 0 {
		return nil, fmt.Errorf("neurocard: empty join result")
	}

	s.domains = make([]int, len(s.layout.Cols))
	for i, lc := range s.layout.Cols {
		if lc.Edge >= 0 {
			s.domains[i] = len(s.edges[lc.Edge].fanVals)
		} else {
			s.domains[i] = sch.Tables[lc.Table].Cols[lc.Col].DomainSize()
		}
	}
	s.rowScratch = make([]int32, len(sch.Tables))
	return s, nil
}

// buildEdge prepares one edge's translation map, row index, subtree-weight
// cumulatives, and fanout dictionary. The child's weights must already be
// computed (reverse-BFS construction order guarantees it).
func (s *Sampler) buildEdge(e Edge) (*edgeState, error) {
	pt, ct := s.schema.Tables[e.Parent], s.schema.Tables[e.Child]
	pc, cc := pt.Cols[e.ParentCol], ct.Cols[e.ChildCol]
	es := &edgeState{cmap: make([]int32, pc.DomainSize())}
	for code := range es.cmap {
		es.cmap[code] = -1
		switch pc.Kind {
		case table.KindInt:
			if rc, ok := cc.CodeOfInt(pc.Ints[code]); ok {
				es.cmap[code] = rc
			}
		case table.KindFloat:
			if rc, ok := cc.CodeOfFloat(pc.Floats[code]); ok {
				es.cmap[code] = rc
			}
		case table.KindString:
			if rc, ok := cc.CodeOfString(pc.Strs[code]); ok {
				es.cmap[code] = rc
			}
		}
	}
	es.rows = make([][]int32, cc.DomainSize())
	for r, code := range cc.Codes {
		es.rows[code] = append(es.rows[code], int32(r))
	}
	cw := s.weights[e.Child]
	es.cum = make([][]int64, len(es.rows))
	es.subByCode = make([]int64, len(es.rows))
	for code, rows := range es.rows {
		cum := make([]int64, len(rows)+1)
		for i, r := range rows {
			cum[i+1] = cum[i] + cw[r]
		}
		es.cum[code] = cum
		es.subByCode[code] = cum[len(rows)]
	}

	// Fanout dictionary over parent key codes: distinct participating-row
	// counts, sorted ascending so the virtual column's dictionary follows the
	// same code-order-is-value-order convention as real columns.
	es.fan = make([]int64, pc.DomainSize())
	distinct := make(map[int64]struct{})
	for code := range es.fan {
		cc := es.cmap[code]
		if cc < 0 {
			continue
		}
		var n int64
		for _, r := range es.rows[cc] {
			if cw[r] > 0 {
				n++
			}
		}
		es.fan[code] = n
		if n > 0 {
			distinct[n] = struct{}{}
		}
	}
	if len(distinct) == 0 {
		return nil, fmt.Errorf("neurocard: join %s.%s = %s.%s matches nothing",
			pt.Name, pc.Name, ct.Name, cc.Name)
	}
	es.fanVals = make([]int64, 0, len(distinct))
	for v := range distinct {
		es.fanVals = append(es.fanVals, v)
	}
	sort.Slice(es.fanVals, func(i, j int) bool { return es.fanVals[i] < es.fanVals[j] })
	es.fanInv = make([]float64, len(es.fanVals))
	valCode := make(map[int64]int32, len(es.fanVals))
	for i, v := range es.fanVals {
		es.fanInv[i] = 1 / float64(v)
		valCode[v] = int32(i)
	}
	es.fanCode = make([]int32, len(es.fan))
	for code, v := range es.fan {
		if v > 0 {
			es.fanCode[code] = valCode[v]
		}
	}
	return es, nil
}

// JoinSize returns the exact cardinality of the full join.
func (s *Sampler) JoinSize() int64 { return s.total }

// NumCols returns the width of an emitted tuple: non-key base columns plus
// one fanout column per edge.
func (s *Sampler) NumCols() int { return len(s.layout.Cols) }

// DomainSizes returns the per-column domain sizes of the joined layout.
func (s *Sampler) DomainSizes() []int { return append([]int(nil), s.domains...) }

// Layout exposes the model column order (shared; treat as read-only).
func (s *Sampler) Layout() Layout { return s.layout }

// FanoutInv returns the per-code inverse fanout multipliers of an edge's
// virtual column (shared; treat as read-only).
func (s *Sampler) FanoutInv(edge int) []float64 { return s.edges[edge].fanInv }

// drawRows picks one join tuple uniformly, writing each table's chosen row
// into rows (indexed by table). Exactly one Int63n per table is consumed, in
// BFS order, so the stream layout is a pure function of the schema.
func (s *Sampler) drawRows(rng *rand.Rand, rows []int32) {
	target := rng.Int63n(s.total)
	rows[0] = int32(sort.Search(len(s.rootCum)-1, func(i int) bool { return s.rootCum[i+1] > target }))
	for _, ti := range s.order {
		pr := rows[ti]
		for _, ei := range s.edgesAt[ti] {
			e := s.schema.Edges[ei]
			es := s.edges[ei]
			cc := es.cmap[s.schema.Tables[ti].Cols[e.ParentCol].Codes[pr]]
			cum := es.cum[cc]
			t := rng.Int63n(es.subByCode[cc])
			idx := sort.Search(len(cum)-1, func(i int) bool { return cum[i+1] > t })
			rows[e.Child] = es.rows[cc][idx]
		}
	}
}

// emit writes the layout's codes for the chosen per-table rows into dst.
func (s *Sampler) emit(rows []int32, dst []int32) {
	for i, lc := range s.layout.Cols {
		if lc.Edge >= 0 {
			e := s.schema.Edges[lc.Edge]
			key := s.schema.Tables[e.Parent].Cols[e.ParentCol].Codes[rows[e.Parent]]
			dst[i] = s.edges[lc.Edge].fanCode[key]
		} else {
			dst[i] = s.schema.Tables[lc.Table].Cols[lc.Col].Codes[rows[lc.Table]]
		}
	}
}

// Draw fills dst (NumCols wide) with one uniform joined tuple plus its
// fanout codes. Not safe for concurrent use (shared row scratch); use Fill
// from concurrent callers.
func (s *Sampler) Draw(rng *rand.Rand, dst []int32) {
	s.drawRows(rng, s.rowScratch)
	s.emit(s.rowScratch, dst)
}

// batchChunk matches the repo-wide 128-row chunk-keyed RNG convention.
const batchChunk = 128

// Fill writes n uniform joined tuples row-major into dst, reseeding every
// batchChunk rows from mixSeed(seed, chunk): bit-reproducible given seed and
// splittable at chunk boundaries without changing a single byte.
func (s *Sampler) Fill(dst []int32, seed int64, n int) {
	start := time.Now()
	nc := s.NumCols()
	rows := make([]int32, len(s.schema.Tables))
	rng := rand.New(rand.NewSource(0))
	for r := 0; r < n; r++ {
		if r%batchChunk == 0 {
			rng.Seed(mixSeed(seed, int64(r/batchChunk)))
		}
		s.drawRows(rng, rows)
		s.emit(rows, dst[r*nc:(r+1)*nc])
	}
	if s.tuples != nil {
		s.tuples.Add(uint64(n))
		if secs := time.Since(start).Seconds(); secs > 0 {
			s.rate.Set(float64(n) / secs)
		}
	}
}

// Batch draws n tuples into a fresh slice via Fill's chunk-keyed streams.
func (s *Sampler) Batch(seed int64, n int) []int32 {
	out := make([]int32, n*s.NumCols())
	s.Fill(out, seed, n)
	return out
}

// Observe attaches sampler telemetry: tuple throughput counters plus one-shot
// gauges describing the join (size, fanout distribution per edge). Attaching
// a registry never touches the sample streams.
func (s *Sampler) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.tuples = reg.Counter(metricSamplerTuples)
	s.rate = reg.Gauge(metricSamplerRate)
	reg.Gauge(metricJoinSize).Set(float64(s.total))
	reg.Gauge(metricSamplerTables).Set(float64(len(s.schema.Tables)))
	reg.Gauge(metricSamplerColumns).Set(float64(len(s.layout.Cols)))
	for ei, es := range s.edges {
		e := s.schema.Edges[ei]
		label := s.schema.Tables[e.Parent].Name + "→" + s.schema.Tables[e.Child].Name
		er := reg.WithLabel("edge", label)
		var max, sum, n float64
		for _, v := range es.fan {
			if v == 0 {
				continue
			}
			f := float64(v)
			if f > max {
				max = f
			}
			sum += f
			n++
		}
		er.Gauge(metricFanoutMax).Set(max)
		if n > 0 {
			er.Gauge(metricFanoutMean).Set(sum / n)
		}
		er.Gauge(metricFanoutDomain).Set(float64(len(es.fanVals)))
	}
}

// LayoutTable assembles a schema-only table over the joined layout, named
// after the join ("customers⋈orders⋈items"): base columns share their source
// dictionaries (renamed "table.column") and fanout columns get integer
// dictionaries of their distinct values; all code vectors are empty. It is
// the compilation target for multi-table queries — query.ParseWhere and
// query.Compile work against it unchanged.
func (s *Sampler) LayoutTable() (*table.Table, error) {
	cols := make([]*table.Column, len(s.layout.Cols))
	for i, lc := range s.layout.Cols {
		if lc.Edge >= 0 {
			cols[i] = &table.Column{
				Name: s.layout.Names[i], Kind: table.KindInt,
				Ints: s.edges[lc.Edge].fanVals, Codes: []int32{},
			}
			continue
		}
		cc := *s.schema.Tables[lc.Table].Cols[lc.Col]
		cc.Name = s.layout.Names[i]
		cc.Codes = []int32{}
		cols[i] = &cc
	}
	names := make([]string, len(s.schema.Tables))
	for i, t := range s.schema.Tables {
		names[i] = t.Name
	}
	return table.New(strings.Join(names, "⋈"), cols)
}

// mixSeed derives a well-separated stream seed from (seed, k) by a splitmix64
// round, mirroring core's train/estimator seeding convention.
func mixSeed(seed, k int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(k+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
