package neurocard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// makeSchema builds the skewed, referentially complete 3-table test schema
// customers(cid, region, tier) ⋈ orders(oid, cid, amount) ⋈ items(oid, price):
// every customer has at least one order and every order at least one item, so
// sub-join counts over any spanned subtree equal the estimator's semantics
// exactly. Low-cid customers are "heavy" (more orders, more items per order).
func makeSchema(t *testing.T, customers, maxOrders, maxItems int, seed int64) *Schema {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"east", "west", "north", "south"}

	cb := table.NewBuilder("customers", []string{"cid", "region", "tier"})
	ob := table.NewBuilder("orders", []string{"oid", "cid", "amount"})
	ib := table.NewBuilder("items", []string{"oid", "price"})
	oid := 0
	for c := 0; c < customers; c++ {
		region := regions[c%len(regions)]
		tier := strconv.Itoa(c % 3)
		if err := cb.AppendRow([]string{strconv.Itoa(c), region, tier}); err != nil {
			t.Fatal(err)
		}
		// Heavy head: the first quarter of customers place most orders.
		orders := 1 + rng.Intn(maxOrders)
		if c < customers/4 {
			orders = maxOrders
		}
		for o := 0; o < orders; o++ {
			amount := strconv.Itoa(rng.Intn(10))
			if err := ob.AppendRow([]string{strconv.Itoa(oid), strconv.Itoa(c), amount}); err != nil {
				t.Fatal(err)
			}
			items := 1 + rng.Intn(maxItems)
			for i := 0; i < items; i++ {
				if err := ib.AppendRow([]string{strconv.Itoa(oid), strconv.Itoa(rng.Intn(8))}); err != nil {
					t.Fatal(err)
				}
			}
			oid++
		}
	}
	ct, err := cb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ot, err := ob.Build()
	if err != nil {
		t.Fatal(err)
	}
	it, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Schema{
		Tables: []*table.Table{ct, ot, it},
		Edges: []Edge{
			{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 1}, // customers.cid = orders.cid
			{Parent: 1, Child: 2, ParentCol: 0, ChildCol: 0}, // orders.oid = items.oid
		},
	}
}

func tinyConfig() Config {
	return Config{
		Hidden: []int{16}, Samples: 500, Seed: 7,
		Epochs: 2, BatchSize: 128, EpochTuples: 2048, LR: 5e-3,
	}
}

func TestValidateRejectsBadSchemas(t *testing.T) {
	sch := makeSchema(t, 8, 2, 2, 1)
	cases := []struct {
		name string
		mut  func(s *Schema)
	}{
		{"missing edge", func(s *Schema) { s.Edges = s.Edges[:1] }},
		{"self join", func(s *Schema) { s.Edges[0].Child = 0 }},
		{"double parent", func(s *Schema) { s.Edges[1].Child = 1 }},
		{"column range", func(s *Schema) { s.Edges[0].ParentCol = 99 }},
		{"kind mismatch", func(s *Schema) { s.Edges[0].ParentCol = 1 }}, // region (string) vs cid (int)
	}
	for _, c := range cases {
		bad := &Schema{
			Tables: append([]*table.Table(nil), sch.Tables...),
			Edges:  append([]Edge(nil), sch.Edges...),
		}
		c.mut(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken schema", c.name)
		}
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestJoinSizeMatchesOracle(t *testing.T) {
	sch := makeSchema(t, 30, 4, 3, 2)
	smp, err := NewSampler(sch)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(sch)
	if want := o.count(allTables(sch), nil); smp.JoinSize() != want {
		t.Fatalf("JoinSize = %d, oracle says %d", smp.JoinSize(), want)
	}
}

// TestSamplerUniformity draws many tuples and chi-squared-tests the empirical
// distribution against exact uniformity over the enumerated full join.
func TestSamplerUniformity(t *testing.T) {
	sch := makeSchema(t, 10, 3, 2, 3)
	smp, err := NewSampler(sch)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(sch)
	index := map[string]int{}
	o.walk(func(rows []int32) {
		index[fmt.Sprint(rows)] = len(index)
	})
	T := len(index)
	if int64(T) != smp.JoinSize() {
		t.Fatalf("enumerated %d tuples, JoinSize = %d", T, smp.JoinSize())
	}
	N := 200 * T
	counts := make([]int, T)
	rng := rand.New(rand.NewSource(99))
	rows := make([]int32, len(sch.Tables))
	for i := 0; i < N; i++ {
		smp.drawRows(rng, rows)
		idx, ok := index[fmt.Sprint(rows)]
		if !ok {
			t.Fatalf("sampler produced a tuple outside the join: %v", rows)
		}
		counts[idx]++
	}
	exp := float64(N) / float64(T)
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// χ²(T-1): mean T-1, variance 2(T-1); 5σ keeps the deterministic seed far
	// from the bound while still catching any real non-uniformity.
	df := float64(T - 1)
	if bound := df + 5*math.Sqrt(2*df); chi2 > bound {
		t.Fatalf("chi-squared %.1f exceeds %.1f over %d tuples", chi2, bound, T)
	}
}

// TestFanoutTelescoping checks the fanout columns on a schema with dangling
// interior rows (orders without items): fanouts count participating child
// rows only, and the inverse-fanout products telescope exactly — summing
// ∏ 1/fanout over every full-join tuple recovers the participating sub-join
// count for each spanned subtree.
func TestFanoutTelescoping(t *testing.T) {
	cb := table.NewBuilder("customers", []string{"cid", "region"})
	ob := table.NewBuilder("orders", []string{"oid", "cid"})
	ib := table.NewBuilder("items", []string{"oid", "price"})
	rng := rand.New(rand.NewSource(4))
	oid := 0
	for c := 0; c < 12; c++ {
		cb.AppendRow([]string{strconv.Itoa(c), strconv.Itoa(c % 3)})
		for o := 0; o < 1+rng.Intn(3); o++ {
			ob.AppendRow([]string{strconv.Itoa(oid), strconv.Itoa(c)})
			// A third of the orders are dangling: no items at all.
			if oid%3 != 0 {
				for i := 0; i < 1+rng.Intn(3); i++ {
					ib.AppendRow([]string{strconv.Itoa(oid), strconv.Itoa(rng.Intn(5))})
				}
			}
			oid++
		}
	}
	ct, _ := cb.Build()
	ot, _ := ob.Build()
	it, _ := ib.Build()
	sch := &Schema{
		Tables: []*table.Table{ct, ot, it},
		Edges: []Edge{
			{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 1},
			{Parent: 1, Child: 2, ParentCol: 0, ChildCol: 0},
		},
	}
	smp, err := NewSampler(sch)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(sch)

	// Participation: an order participates iff it has an item; a customer iff
	// one of its orders does.
	itemsOf := o.childRows[1]
	orderLive := func(r int32) bool { return len(itemsOf[r]) > 0 }
	custLive := func(r int32) bool {
		for _, or := range o.childRows[0][r] {
			if orderLive(or) {
				return true
			}
		}
		return false
	}

	// Fanout of customers→orders must count participating orders only.
	es := smp.edges[0]
	keys := ct.Cols[0]
	for r := 0; r < ct.NumRows(); r++ {
		var want int64
		for _, or := range o.childRows[0][int32(r)] {
			if orderLive(or) {
				want++
			}
		}
		if got := es.fan[keys.Codes[r]]; got != want {
			t.Fatalf("customer row %d: fanout %d, want %d participating orders", r, got, want)
		}
	}

	// Telescoping identities over the enumerated full join.
	var liveCustomers, livePairs float64
	for r := int32(0); int(r) < ct.NumRows(); r++ {
		if custLive(r) {
			liveCustomers++
		}
	}
	for r := int32(0); int(r) < ot.NumRows(); r++ {
		if orderLive(r) {
			livePairs++ // referentially complete upward: each order has its customer
		}
	}
	var sumBoth, sumItems float64
	custKey, orderKey := ct.Cols[0], ot.Cols[0]
	fanCO, fanOI := smp.edges[0].fan, smp.edges[1].fan
	o.walk(func(rows []int32) {
		fco := float64(fanCO[custKey.Codes[rows[0]]])
		foi := float64(fanOI[orderKey.Codes[rows[1]]])
		sumBoth += 1 / (fco * foi)
		sumItems += 1 / foi
	})
	if math.Abs(sumBoth-liveCustomers) > 1e-6 {
		t.Errorf("Σ 1/(f_co·f_oi) = %.9f, want %.0f participating customers", sumBoth, liveCustomers)
	}
	if math.Abs(sumItems-livePairs) > 1e-6 {
		t.Errorf("Σ 1/f_oi = %.9f, want %.0f participating (customer,order) pairs", sumItems, livePairs)
	}
}

func TestBatchChunkReproducible(t *testing.T) {
	sch := makeSchema(t, 20, 3, 3, 5)
	smp, err := NewSampler(sch)
	if err != nil {
		t.Fatal(err)
	}
	a := smp.Batch(11, 300)
	b := smp.Batch(11, 300)
	if !bytes.Equal(int32Bytes(a), int32Bytes(b)) {
		t.Fatal("same-seed batches differ")
	}
	// Chunk keying: a 256-row batch is an exact prefix of a 300-row batch.
	p := smp.Batch(11, 256)
	if !bytes.Equal(int32Bytes(p), int32Bytes(a[:len(p)])) {
		t.Fatal("shorter batch is not a prefix of the longer one")
	}
	c := smp.Batch(12, 300)
	if bytes.Equal(int32Bytes(a), int32Bytes(c)) {
		t.Fatal("different seeds produced identical batches")
	}
}

func int32Bytes(v []int32) []byte {
	out := make([]byte, 0, len(v)*4)
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

// TestEstimateVsOracle trains a small join model and checks multi-table
// estimates against the nested-loop oracle. The seed is fixed, so this is a
// deterministic regression gate, not a flaky statistical test.
func TestEstimateVsOracle(t *testing.T) {
	sch := makeSchema(t, 40, 5, 3, 6)
	cfg := tinyConfig()
	cfg.Epochs = 4
	cfg.EpochTuples = 4096
	est, _, err := Train(context.Background(), sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	smp := est.Sampler()
	o := newOracle(sch)
	lt := est.LayoutTable()
	wheres := []string{
		"customers.region = west",
		"customers.region = east AND orders.amount <= 4",
		"orders.amount >= 2",
		"items.price >= 3",
		"customers.tier = 1 AND items.price <= 5",
	}
	for _, where := range wheres {
		card, _, err := est.EstimateWhere(where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		q, err := query.ParseWhere(where, lt)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := query.Compile(q, lt)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(o.count(subtreeOf(smp, q), regionMatch(smp, reg)))
		if truth < 1 {
			t.Fatalf("%s: oracle truth %v too small for a meaningful check", where, truth)
		}
		qerr := math.Max(math.Max(card, 1)/truth, truth/math.Max(card, 1))
		if qerr > 5 {
			t.Errorf("%s: estimate %.1f vs truth %.0f (q-error %.2f)", where, card, truth, qerr)
		}
	}
}

// TestAppendRefreshLifecycle: appends are copy-on-write (serving stays
// bit-identical), drift accumulates per base table, and Refresh folds the
// appended rows — including dictionary extensions on value and key columns —
// into a new serving version whose join size matches the oracle.
func TestAppendRefreshLifecycle(t *testing.T) {
	sch := makeSchema(t, 24, 3, 2, 8)
	cfg := tinyConfig()
	cfg.RefreshFraction = 0.05
	est, _, err := Train(context.Background(), sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const where = "customers.region = west"
	if _, _, err := est.EstimateWhere(where); err != nil {
		t.Fatal(err)
	}
	size1 := est.JoinSize()
	stream1 := est.Sampler().Batch(31, 200)

	// Append a new customer with an unseen region (dictionary extension),
	// plus orders for it under unseen oids and their items (key-column
	// dictionary extensions on orders.oid and items.oid).
	if err := est.AppendRows("customers", [][]string{{"900", "polar", "0"}}); err != nil {
		t.Fatal(err)
	}
	if err := est.AppendRows("orders", [][]string{
		{"9000", "900", "3"}, {"9001", "900", "7"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := est.AppendRows("items", [][]string{
		{"9000", "1"}, {"9000", "4"}, {"9001", "2"},
	}); err != nil {
		t.Fatal(err)
	}

	// Serving snapshot untouched: the sampler's stream is bit-identical, the
	// join size unchanged, and estimates still serve.
	if !bytes.Equal(int32Bytes(stream1), int32Bytes(est.Sampler().Batch(31, 200))) {
		t.Fatal("sampler stream changed across copy-on-write append")
	}
	if est.JoinSize() != size1 {
		t.Fatalf("JoinSize changed before refresh: %d vs %d", est.JoinSize(), size1)
	}
	if _, _, err := est.EstimateWhere(where); err != nil {
		t.Fatal(err)
	}

	d := est.Drift()
	if d.AppendedRows == 0 || d.TVD == 0 {
		t.Fatalf("drift did not register the appends: %+v", d)
	}
	if !est.ShouldRefresh() {
		t.Fatalf("ShouldRefresh = false at drift %+v with threshold %v", d, cfg.RefreshFraction)
	}

	if err := est.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := est.ModelVersion(); got != 2 {
		t.Fatalf("ModelVersion = %d after refresh, want 2", got)
	}
	fresh := &Schema{
		Tables: []*table.Table{est.Table("customers"), est.Table("orders"), est.Table("items")},
		Edges:  sch.Edges,
	}
	if want := newOracle(fresh).count(allTables(fresh), nil); est.JoinSize() != want {
		t.Fatalf("post-refresh JoinSize = %d, oracle says %d", est.JoinSize(), want)
	}
	if est.Drift().AppendedRows != 0 {
		t.Fatalf("drift not re-baselined after refresh: %+v", est.Drift())
	}
	// The unseen region is now queryable.
	card3, _, err := est.EstimateWhere("customers.region = polar")
	if err != nil {
		t.Fatal(err)
	}
	if card3 <= 0 {
		t.Fatalf("estimate for the appended region = %v, want positive", card3)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sch := makeSchema(t, 16, 3, 2, 9)
	est, _, err := Train(context.Background(), sch, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	got, err := Load(bytes.NewReader(saved), sch, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const where = "customers.region = east AND orders.amount <= 3"
	c1, s1, err := est.EstimateWhere(where)
	if err != nil {
		t.Fatal(err)
	}
	c2, s2, err := got.EstimateWhere(where)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || s1 != s2 {
		t.Fatalf("loaded estimator diverges: %v±%v vs %v±%v", c1, s1, c2, s2)
	}

	// A schema whose data moved on (an unseen amount value grows a modeled
	// column's domain) must be rejected.
	ot, err := sch.Tables[1].AppendValues([][]string{{"9000", "0", "77"}})
	if err != nil {
		t.Fatal(err)
	}
	moved := &Schema{Tables: []*table.Table{sch.Tables[0], ot, sch.Tables[2]}, Edges: sch.Edges}
	if _, err := Load(bytes.NewReader(saved), moved, tinyConfig()); err == nil {
		t.Fatal("Load accepted a model over drifted data")
	}
}

func TestFanoutPredicateRejected(t *testing.T) {
	sch := makeSchema(t, 12, 2, 2, 10)
	est, _, err := Train(context.Background(), sch, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	fanCol := -1
	for i, lc := range est.Sampler().Layout().Cols {
		if lc.Edge >= 0 {
			fanCol = i
			break
		}
	}
	q := query.Query{Preds: []query.Predicate{{Col: fanCol, Op: query.OpEq, Code: 0}}}
	if _, _, err := est.EstimateQuery(q); err == nil {
		t.Fatal("predicate on a fanout column was accepted")
	}
	if _, _, err := est.EstimateWhere("customers.nope = 1"); err == nil {
		t.Fatal("unknown column was accepted")
	}
}

// randKeyTable builds a random two-column table key(int), val(string) with
// keys drawn from [0, keyDomain).
func randKeyTable(t *testing.T, rng *rand.Rand, name string, rows, keyDomain int) *table.Table {
	t.Helper()
	b := table.NewBuilder(name, []string{"key", "val"})
	for i := 0; i < rows; i++ {
		if err := b.AppendRow([]string{strconv.Itoa(rng.Intn(keyDomain)), fmt.Sprintf("v%d", rng.Intn(5))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// checkJoinSize joins left.key = right.key through the sampler and requires
// its exact JoinSize to equal the nested-loop oracle's count; an empty join
// must be rejected by NewSampler instead.
func checkJoinSize(t *testing.T, trial int, left, right *table.Table) {
	t.Helper()
	sch := &Schema{
		Tables: []*table.Table{left, right},
		Edges:  []Edge{{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 0}},
	}
	want := NewOracle(sch).CountAll()
	smp, err := NewSampler(sch)
	if want == 0 {
		if err == nil {
			t.Fatalf("trial %d: oracle says empty join, NewSampler accepted it", trial)
		}
		return
	}
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	if smp.JoinSize() != want {
		t.Fatalf("trial %d: JoinSize %d, oracle %d", trial, smp.JoinSize(), want)
	}
}

// TestAppendThenJoinMatchesOracle: joining tables grown by the lifecycle
// append path — including key values that extended a dictionary with an
// arrival-ordered tail — gives exactly the oracle's join size. This pins down
// the interaction between Column.Ext lookups (binary-search prefix + linear
// tail) and the sampler's value-based key-code mapping.
func TestAppendThenJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		left := randKeyTable(t, rng, "left", 1+rng.Intn(20), 1+rng.Intn(8))
		right := randKeyTable(t, rng, "right", 1+rng.Intn(20), 1+rng.Intn(8))
		// Grow both tables with rows whose keys lie past the built
		// dictionaries (20+ is guaranteed unseen), so some new keys match.
		nApp := 1 + rng.Intn(10)
		rowsL := make([][]string, nApp)
		rowsR := make([][]string, nApp)
		for i := range rowsL {
			rowsL[i] = []string{strconv.Itoa(20 + rng.Intn(6)), fmt.Sprintf("v%d", rng.Intn(7))}
			rowsR[i] = []string{strconv.Itoa(20 + rng.Intn(6)), fmt.Sprintf("v%d", rng.Intn(7))}
		}
		grownL, err := left.AppendValues(rowsL)
		if err != nil {
			t.Fatal(err)
		}
		grownR, err := right.AppendValues(rowsR)
		if err != nil {
			t.Fatal(err)
		}
		if !grownL.Cols[0].Extended() {
			t.Fatalf("trial %d: append did not extend the key dictionary", trial)
		}
		checkJoinSize(t, trial, grownL, grownR)
		// The pre-append snapshots must be untouched and still join correctly.
		checkJoinSize(t, trial, left, right)
	}
}

// TestJoinQueriesObserved: a root-table-only predicate leaves the other
// tables outside the spanned subtree, so the query carries scale columns; it
// is still counted in naru_queries_total and traced like a single-table query.
func TestJoinQueriesObserved(t *testing.T) {
	sch := makeSchema(t, 24, 3, 2, 5)
	cfg := tinyConfig()
	reg := obs.New()
	cfg.Obs = reg
	est, _, err := Train(context.Background(), sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if _, _, err := est.EstimateWhere("customers.region = west"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricScaledEsts]; got != n {
		t.Fatalf("%s = %d, want %d: the queries did not carry scale columns", metricScaledEsts, got, n)
	}
	if got := snap.Counters["naru_queries_total"]; got != n {
		t.Fatalf("naru_queries_total = %d, want %d", got, n)
	}
	if snap.TraceTotal != n {
		t.Fatalf("%d trace records, want %d", snap.TraceTotal, n)
	}
}
