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
// time through the coalescer gets bit-identical results to a sequential
// ctx-serve of the same workload — coalescing changes scheduling, never
// answers.
func TestCoalescerSequentialBitIdentity(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()

	ref := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	want, err := ref.SelectivityBatchCtx(context.Background(), qs, ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	c := est.NewCoalescer(CoalesceOptions{Window: time.Millisecond})
	defer c.Close()
	for i, q := range qs {
		got := c.Estimate(context.Background(), q)
		w := want[i]
		if got.Sel != w.Sel || got.StdErr != w.StdErr || got.Samples != w.Samples ||
			got.Source != w.Source || got.Stop != w.Stop {
			t.Fatalf("query %d: coalesced %+v != sequential %+v", i, got, w)
		}
	}
}

// TestCoalescerConcurrentClients hammers one coalescer from many goroutines;
// every request must come back as a well-formed full-budget model answer.
// Under -race this is the coalescer's data-race check.
func TestCoalescerConcurrentClients(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	c := est.NewCoalescer(CoalesceOptions{Window: 3 * time.Millisecond, MaxBatch: 16})
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

// TestCoalescerSheds: once the backlog reaches MaxQueue, new arrivals are
// answered by the fallback with StopShed/ErrShed instead of queueing, and the
// queued query still completes on the model path.
func TestCoalescerSheds(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	c := est.NewCoalescer(CoalesceOptions{
		Window:   time.Hour, // flush only via Close: keeps the backlog pinned
		MaxQueue: 1,
		Serve:    ServeOptions{Fallback: Fallback(tbl)},
	})

	queued := make(chan Result, 1)
	go func() { queued <- c.Estimate(context.Background(), qs[2]) }()
	for i := 0; ; i++ {
		c.mu.Lock()
		p := c.pending
		c.mu.Unlock()
		if p >= 1 {
			break
		}
		if i > 5000 {
			t.Fatal("queued query never registered")
		}
		time.Sleep(time.Millisecond)
	}

	shed := c.Estimate(context.Background(), qs[0])
	if shed.Stop != StopShed || !errors.Is(shed.Err, ErrShed) {
		t.Fatalf("overflow query not shed: %+v", shed)
	}
	if shed.Source != SourceFallback || shed.Sel <= 0 || shed.Sel > 1 {
		t.Fatalf("shed query not answered by fallback: %+v", shed)
	}

	c.Close()
	res := <-queued
	if res.Source != SourceModel || res.Err != nil {
		t.Fatalf("queued query after shed: %+v", res)
	}
	if after := c.Estimate(context.Background(), qs[0]); !errors.Is(after.Err, ErrCoalescerClosed) {
		t.Fatalf("estimate after close: %+v", after)
	}
}

// TestCoalescerHotSwapSingleVersionPerBatch: a hot-swap landing while a batch
// is queued never splits the batch — every query in one dispatch is compiled
// and served against the same version bundle, and later queries pick up the
// new version.
func TestCoalescerHotSwapSingleVersionPerBatch(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	c := est.NewCoalescer(CoalesceOptions{Window: 30 * time.Millisecond, MaxBatch: 64})
	defer c.Close()

	const clients = 8
	results := make(chan Result, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results <- c.Estimate(context.Background(), qs[g%len(qs)])
		}(g)
	}
	for i := 0; ; i++ {
		c.mu.Lock()
		p := c.pending
		c.mu.Unlock()
		if p == clients {
			break
		}
		if i > 5000 {
			t.Fatal("clients never queued")
		}
		time.Sleep(time.Millisecond)
	}
	m2 := made.New(tbl.DomainSizes(), made.Config{
		HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 7,
	})
	est.InstallVersion(m2, tbl, int64(tbl.NumRows()), 2)
	wg.Wait()
	close(results)

	var v uint64
	for res := range results {
		if res.Err != nil {
			t.Fatalf("mid-swap query failed: %+v", res)
		}
		if v == 0 {
			v = res.ModelVersion
		}
		if res.ModelVersion != v {
			t.Fatalf("batch split across versions %d and %d", v, res.ModelVersion)
		}
	}
	post := c.Estimate(context.Background(), qs[0])
	if post.ModelVersion != 2 {
		t.Fatalf("post-swap query served by version %d", post.ModelVersion)
	}
}

// TestCoalescerStaleWindowTimerIsNoOp is the regression test for the
// stale-window-timer bug: a window's AfterFunc callback that loses the race
// with a MaxBatch flush (Stop returns false once the callback has started)
// used to run against the NEXT window, dispatching it before its own window
// elapsed and clobbering its timer. With generation numbering the stale
// callback must be a no-op: the next window keeps its queue, its timer, and
// its full window span.
func TestCoalescerStaleWindowTimerIsNoOp(t *testing.T) {
	tbl := facadeTable(t, 1200)
	qs := coalesceQueries()

	ref := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	want, err := ref.SelectivityBatchCtx(context.Background(), qs[:3], ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	const window = 40 * time.Millisecond
	c := est.NewCoalescer(CoalesceOptions{Window: window, MaxBatch: 2})
	defer c.Close()

	waitQueued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			c.mu.Lock()
			queued := len(c.queue)
			c.mu.Unlock()
			if queued == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %d entries", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	submit := func(i int) chan Result {
		out := make(chan Result, 1)
		go func() { out <- c.Estimate(context.Background(), qs[i]) }()
		return out
	}

	// Window 1: first query arms the gen-1 timer; the second hits MaxBatch and
	// flushes the window early, consuming the timer but NOT the callback —
	// exactly the state where the old code left a live gen-1 callback behind.
	r0 := submit(0)
	waitQueued(1)
	r1 := submit(1)
	for i, ch := range []chan Result{r0, r1} {
		if res := <-ch; res.Sel != want[i].Sel || res.Source != SourceModel {
			t.Fatalf("window-1 query %d: %+v, want sel %v from model", i, res, want[i].Sel)
		}
	}

	// Window 2: a fresh query arms the gen-2 timer.
	start := time.Now()
	r2 := submit(2)
	waitQueued(1)

	// Replay the stale gen-1 callback, as if it had been blocked on the lock
	// through the MaxBatch flush and only now got to run.
	c.flush(1)

	c.mu.Lock()
	queued, timerLive := len(c.queue), c.timer != nil
	c.mu.Unlock()
	if queued != 1 || !timerLive {
		t.Fatalf("stale callback dispatched window 2: %d queued, timer live %v (want 1, true)", queued, timerLive)
	}

	// The window still dispatches — by its own timer, after its full span —
	// and the answer is bit-identical to the sequential serve.
	res := <-r2
	if elapsed := time.Since(start); elapsed < window {
		t.Fatalf("window 2 dispatched after %v, before its %v window elapsed", elapsed, window)
	}
	if res.Sel != want[2].Sel || res.StdErr != want[2].StdErr || res.Source != SourceModel {
		t.Fatalf("window-2 answer %+v, want %+v", res, want[2])
	}
}

// TestCoalescerCompileErrorObserved: a query that fails compilation inside a
// fused batch is answered directly, but must still land in the failed-path
// metrics and the trace ring — before ObserveFailure, coalesced compile
// errors were invisible to /metrics and /traces.
func TestCoalescerCompileErrorObserved(t *testing.T) {
	tbl := facadeTable(t, 1200)
	cfg := fusedConfig()
	reg := NewMetrics()
	cfg.Metrics = reg
	est := NewFromModel(fusedModel(tbl), tbl, cfg)
	c := est.NewCoalescer(CoalesceOptions{Window: time.Millisecond})
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

	// The batch that carried the failure still serves its good peers, and
	// they are counted on their own path.
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

// TestCoalescerCancelledClientStopsItsQuery: two sampling queries coalesce
// into one batch, and one client gives up before the batch is dispatched.
// Its query carries the client's context into the walk and stops there, so
// only the other query's sample paths are spent.
func TestCoalescerCancelledClientStopsItsQuery(t *testing.T) {
	tbl := wideTable(t)
	est := NewFromModel(fusedModel(tbl), tbl, fusedConfig())
	reg := NewMetrics()
	est.SetMetrics(reg)
	// The window never expires: the second arrival dispatches the batch.
	c := est.NewCoalescer(CoalesceOptions{Window: time.Hour, MaxBatch: 2})
	defer c.Close()
	qs := []Query{
		{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 1}, {Col: 1, Op: OpGe, Code: 1}, {Col: 2, Op: OpGe, Code: 1}}},
		{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 2}, {Col: 1, Op: OpGe, Code: 2}, {Col: 2, Op: OpGe, Code: 1}}},
	}

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan Result, 1)
	go func() { gone <- c.Estimate(ctx, qs[0]) }()
	for i := 0; ; i++ {
		c.mu.Lock()
		p := c.pending
		c.mu.Unlock()
		if p >= 1 {
			break
		}
		if i > 5000 {
			t.Fatal("first query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if r := <-gone; !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled client got %+v", r)
	}

	res := c.Estimate(context.Background(), qs[1])
	if res.Source != SourceModel || res.Samples != fusedConfig().Samples {
		t.Fatalf("live client got %+v, want a full-budget model answer", res)
	}
	// Both answers were observed before the live client's was delivered.
	if got := reg.Counter("naru_sample_paths_completed_total").Value(); got != uint64(res.Samples) {
		t.Fatalf("naru_sample_paths_completed_total = %d, want %d: the cancelled query kept sampling", got, res.Samples)
	}
}
