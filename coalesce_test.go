package naru

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/made"
	"repro/internal/table"
)

// fusedModel builds a small untrained MADE over the table's schema —
// determinism and routing contracts don't need trained weights.
func fusedModel(tbl *Table) *made.Model {
	return made.New(tbl.DomainSizes(), made.Config{
		HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 5,
	})
}

func fusedConfig() Config {
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.Seed = 3
	return cfg
}

// coalesceQueries mixes sampling-heavy, point, interior-wildcard, and
// unrestricted queries over facadeTable's 3 columns (domains 6, 9, 4).
func coalesceQueries() []Query {
	return []Query{
		{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 1}, {Col: 2, Op: OpLt, Code: 3}}},
		{Preds: []Predicate{{Col: 1, Op: OpBetween, Code: 2, Code2: 7}}},
		{Preds: []Predicate{{Col: 0, Op: OpGt, Code: 0}, {Col: 1, Op: OpGt, Code: 0}, {Col: 2, Op: OpGt, Code: 0}}},
		{Preds: []Predicate{{Col: 1, Op: OpEq, Code: 4}}},
		{},
		{Preds: []Predicate{{Col: 0, Op: OpLe, Code: 4}, {Col: 1, Op: OpNe, Code: 3}}},
	}
}

// TestCoalescerSequentialBitIdentity: one client submitting queries one at a
// time through the admission gate gets bit-identical results to a sequential
// serve of the same workload on the reference walk (EstimateBatchCtx, one
// CondBatch block per chunk) — the gate changes scheduling, never answers.
func TestCoalescerSequentialBitIdentity(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	regs := make([]*Region, len(qs))
	for i, q := range qs {
		reg, err := Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}

	ref := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	want := ref.EstimateBatchCtx(context.Background(), regs, ServeOptions{Workers: 1})

	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	c := est.NewCoalescer(CoalesceOptions{})
	defer c.Close()
	for i, q := range qs {
		got := c.Estimate(context.Background(), q)
		w := want[i]
		if got.Sel != w.Sel || got.StdErr != w.StdErr || got.Samples != w.Samples ||
			got.Source != w.Source || got.Stop != w.Stop {
			t.Fatalf("query %d: gated %+v != sequential %+v", i, got, w)
		}
	}
}

// TestCoalescerConcurrentClients hammers one gate from many goroutines, more
// than it has slots; every request must come back as a well-formed
// full-budget model answer. Under -race this is the gate's data-race check.
func TestCoalescerConcurrentClients(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	c := est.NewCoalescer(CoalesceOptions{MaxInFlight: 2})
	defer c.Close()

	const clients = 32
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := c.Estimate(context.Background(), qs[g%len(qs)])
			if res.Source != SourceModel || res.Err != nil {
				t.Errorf("client %d: %+v", g, res)
				return
			}
			if res.Sel < 0 || res.Sel > 1 {
				t.Errorf("client %d: selectivity %v outside [0,1]", g, res.Sel)
			}
		}(g)
	}
	wg.Wait()
}

// walkGate holds the one walk slot of a MaxInFlight-1 gate: its hook, set
// as Serve.BeforeQuery, blocks the query inside the walk until release, and
// after release every query passes straight through.
type walkGate struct {
	// entered takes one send per query entering the walk; its 64 slots
	// outnumber any test's queries, so the hook never blocks on it.
	entered chan struct{}
	hold    chan struct{} // closed by release
	once    sync.Once
}

func newWalkGate() *walkGate {
	return &walkGate{entered: make(chan struct{}, 64), hold: make(chan struct{})}
}

func (g *walkGate) hook(int) {
	g.entered <- struct{}{}
	<-g.hold
}

func (g *walkGate) release() { g.once.Do(func() { close(g.hold) }) }

// await blocks until a query has entered the walk.
func (g *walkGate) await(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no query entered the walk")
	}
}

// awaitPending blocks until n admitted queries wait for a slot.
func awaitPending(t *testing.T, c *Coalescer, n int) {
	t.Helper()
	for i := 0; ; i++ {
		c.mu.Lock()
		p := c.pending
		c.mu.Unlock()
		if p == n {
			return
		}
		if i > 5000 {
			t.Fatalf("%d queries waiting for a slot, want %d", p, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescerSheds: once MaxQueue queries wait for a slot, new arrivals are
// answered by the fallback with StopShed/ErrShed instead of waiting, and the
// queries already admitted still complete on the model path.
func TestCoalescerSheds(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	g := newWalkGate()
	defer g.release()
	c := est.NewCoalescer(CoalesceOptions{
		MaxInFlight: 1,
		MaxQueue:    1,
		Serve:       ServeOptions{Fallback: Fallback(tbl), BeforeQuery: g.hook},
	})

	walking := make(chan Result, 1)
	go func() { walking <- c.Estimate(context.Background(), qs[2]) }()
	g.await(t)
	queued := make(chan Result, 1)
	go func() { queued <- c.Estimate(context.Background(), qs[1]) }()
	awaitPending(t, c, 1)

	shed := c.Estimate(context.Background(), qs[0])
	if shed.Stop != StopShed || !errors.Is(shed.Err, ErrShed) {
		t.Fatalf("overflow query not shed: %+v", shed)
	}
	if shed.Source != SourceFallback || shed.Sel <= 0 || shed.Sel > 1 {
		t.Fatalf("shed query not answered by fallback: %+v", shed)
	}

	c.Close()
	g.release()
	for name, ch := range map[string]chan Result{"walking": walking, "queued": queued} {
		if res := <-ch; res.Source != SourceModel || res.Err != nil {
			t.Fatalf("%s query after shed: %+v", name, res)
		}
	}
	if after := c.Estimate(context.Background(), qs[0]); !errors.Is(after.Err, ErrCoalescerClosed) {
		t.Fatalf("estimate after close: %+v", after)
	}
}

// TestCoalescerHotSwapPinsEachQuery: a query compiles and walks against the
// version it loaded when it took its slot. The query held inside the walk
// across a hot-swap answers from version 1, and the queries that take a slot
// after the swap answer from version 2.
func TestCoalescerHotSwapPinsEachQuery(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	g := newWalkGate()
	defer g.release()
	c := est.NewCoalescer(CoalesceOptions{MaxInFlight: 1, Serve: ServeOptions{BeforeQuery: g.hook}})
	defer c.Close()

	walking := make(chan Result, 1)
	go func() { walking <- c.Estimate(context.Background(), qs[0]) }()
	g.await(t)
	const waiting = 4
	results := make(chan Result, waiting)
	for i := 0; i < waiting; i++ {
		go func(i int) { results <- c.Estimate(context.Background(), qs[1+i%(len(qs)-1)]) }(i)
	}
	awaitPending(t, c, waiting)

	m2 := made.New(tbl.DomainSizes(), made.Config{
		HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 7,
	})
	est.InstallVersion(m2, tbl, int64(tbl.NumRows()), 2)
	g.release()

	if res := <-walking; res.Err != nil || res.ModelVersion != 1 {
		t.Fatalf("query walking across the swap: %+v, want a version-1 answer", res)
	}
	for i := 0; i < waiting; i++ {
		if res := <-results; res.Err != nil || res.ModelVersion != 2 {
			t.Fatalf("query admitted before the swap: %+v, want a version-2 answer", res)
		}
	}
}

// TestCoalescerCompileErrorObserved: a query that fails compilation is
// answered by the gate without a walk, but must still land in the
// failed-path metrics and the trace ring.
func TestCoalescerCompileErrorObserved(t *testing.T) {
	tbl := facadeTable(t, 1200)
	cfg := fusedConfig()
	reg := NewMetrics()
	cfg.Metrics = reg
	est := NewFromModel(fusedModel(tbl), tbl, cfg)
	c := est.NewCoalescer(CoalesceOptions{})
	defer c.Close()

	bad := Query{Preds: []Predicate{{Col: 99, Op: OpEq, Code: 0}}}
	res := c.Estimate(context.Background(), bad)
	if res.Source != SourceFailed || res.Err == nil {
		t.Fatalf("bad column compiled: %+v", res)
	}

	snap := reg.Snapshot()
	if snap.Counters["naru_queries_total"] != 1 || snap.Counters["naru_query_path_failed_total"] != 1 {
		t.Fatalf("compile error not counted: queries %d, failed %d (want 1, 1)",
			snap.Counters["naru_queries_total"], snap.Counters["naru_query_path_failed_total"])
	}
	if len(snap.Traces) != 1 || snap.Traces[0].Path != "failed" || snap.Traces[0].Err == "" {
		t.Fatalf("compile error not traced: %+v", snap.Traces)
	}

	// A good query after it is served and counted on its own path.
	good := c.Estimate(context.Background(), Query{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 1}}})
	if good.Source != SourceModel || good.Err != nil {
		t.Fatalf("good query after compile failure: %+v", good)
	}
	snap = reg.Snapshot()
	if snap.Counters["naru_queries_total"] != 2 || snap.Counters["naru_query_path_failed_total"] != 1 {
		t.Fatalf("good query miscounted: queries %d, failed %d (want 2, 1)",
			snap.Counters["naru_queries_total"], snap.Counters["naru_query_path_failed_total"])
	}
}

// wideTable is a 3-column table over a 32×32×10 domain, wide enough that a
// query restricting all three columns samples instead of enumerating.
func wideTable(t *testing.T) *Table {
	t.Helper()
	b := table.NewBuilder("w", []string{"a", "b", "c"})
	for i := 0; i < 2048; i++ {
		a, bb := i%32, (i/32)%32
		if err := b.AppendRow([]string{strconv.Itoa(a), strconv.Itoa(bb), strconv.Itoa((a + bb) % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestCoalescerCancelledClientStopsItsQuery: a client that gives up while
// its query waits for a slot gets a cancelled answer at once, and its query
// never walks: only the sample paths of the query that held the slot are
// spent.
func TestCoalescerCancelledClientStopsItsQuery(t *testing.T) {
	tbl := wideTable(t)
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	reg := NewMetrics()
	est.SetMetrics(reg)
	g := newWalkGate()
	defer g.release()
	c := est.NewCoalescer(CoalesceOptions{MaxInFlight: 1, Serve: ServeOptions{BeforeQuery: g.hook}})
	defer c.Close()
	qs := []Query{
		{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 1}, {Col: 1, Op: OpGe, Code: 1}, {Col: 2, Op: OpGe, Code: 1}}},
		{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 2}, {Col: 1, Op: OpGe, Code: 2}, {Col: 2, Op: OpGe, Code: 1}}},
	}

	walking := make(chan Result, 1)
	go func() { walking <- c.Estimate(context.Background(), qs[1]) }()
	g.await(t)
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan Result, 1)
	go func() { gone <- c.Estimate(ctx, qs[0]) }()
	awaitPending(t, c, 1)
	cancel()
	if r := <-gone; !errors.Is(r.Err, context.Canceled) || r.Stop != StopCancel {
		t.Fatalf("cancelled client got %+v", r)
	}
	awaitPending(t, c, 0)

	g.release()
	res := <-walking
	if res.Source != SourceModel || res.Samples != fusedConfig().Samples {
		t.Fatalf("live client got %+v, want a full-budget model answer", res)
	}
	if got := reg.Counter("naru_sample_paths_completed_total").Value(); got != uint64(res.Samples) {
		t.Fatalf("naru_sample_paths_completed_total = %d, want %d: the cancelled query walked", got, res.Samples)
	}
}
