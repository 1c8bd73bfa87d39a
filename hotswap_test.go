package naru

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// hotswapConfig is small enough for fast version churn; the facade table's
// joint size (216) keeps every query on the exact enumeration path, so a
// given model version answers each query with ONE bit-exact selectivity no
// matter how many goroutines ask or what the sampler seed is — the basis for
// the bit-identity assertions below.
func hotswapConfig() Config {
	cfg := DefaultConfig()
	cfg.HiddenSizes = []int{16, 16}
	cfg.Epochs = 2
	cfg.Samples = 200
	cfg.Seed = 3
	return cfg
}

// TestHotSwapConcurrentServing drives concurrent serving through three
// version hot-swaps under the race detector: every Result must carry the
// version that answered it, all results of one batch must come from one
// version, and every answer must be bit-identical to a sequential run of
// that pinned version.
func TestHotSwapConcurrentServing(t *testing.T) {
	tbl := facadeTable(t, 2000)
	cfg := hotswapConfig()
	est, err := Build(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	qs := []Query{
		{Preds: []Predicate{{Col: 0, Op: OpLe, Code: 2}}},
		{Preds: []Predicate{{Col: 1, Op: OpGe, Code: 4}}},
		{Preds: []Predicate{{Col: 0, Op: OpEq, Code: 1}, {Col: 2, Op: OpLe, Code: 2}}},
		{Preds: []Predicate{{Col: 1, Op: OpLt, Code: 7}, {Col: 2, Op: OpGt, Code: 0}}},
	}

	// Four model versions: the trained one plus three perturbed clones, each
	// fine-tuned differently. expected[v][i] is version v's exact answer to
	// query i, computed sequentially on a private estimator.
	rows := int64(tbl.NumRows())
	models := make(map[uint64]core.Trainable, 4)
	expected := make(map[uint64][]float64, 4)
	models[1] = est.cur.Load().model
	for v := uint64(2); v <= 4; v++ {
		cp, err := models[1].(interface{ CloneModel() (any, error) }).CloneModel()
		if err != nil {
			t.Fatal(err)
		}
		c := cp.(core.Trainable)
		core.Train(c, tbl, core.TrainConfig{
			Epochs: 1, BatchSize: 256, LR: 1e-3, Seed: int64(100 * v),
		})
		models[v] = c
	}
	for v, m := range models {
		ref := newEstimator(m, tbl, cfg, rows)
		results, err := ref.SelectivityBatchCtx(context.Background(), qs, ServeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			expected[v] = append(expected[v], r.Sel)
		}
	}

	checkBatch := func(results []Result) error {
		v := results[0].ModelVersion
		want, ok := expected[v]
		if !ok {
			return fmt.Errorf("result carries unknown version %d", v)
		}
		for i, r := range results {
			if r.ModelVersion != v {
				return fmt.Errorf("batch split across versions %d and %d", v, r.ModelVersion)
			}
			if r.Err != nil {
				return fmt.Errorf("query %d: %v", i, r.Err)
			}
			if r.Sel != want[i] {
				return fmt.Errorf("version %d query %d: sel %v, pinned sequential %v", v, i, r.Sel, want[i])
			}
		}
		return nil
	}

	// Before any swap: everything answers as version 1.
	pre, err := est.SelectivityBatchCtx(context.Background(), qs, ServeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pre[0].ModelVersion != 1 {
		t.Fatalf("pre-swap version %d", pre[0].ModelVersion)
	}
	if err := checkBatch(pre); err != nil {
		t.Fatal(err)
	}

	// Concurrent serving across three hot-swaps.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				results, err := est.SelectivityBatchCtx(context.Background(), qs, ServeOptions{Workers: 2})
				if err == nil {
					err = checkBatch(results)
				}
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for v := uint64(2); v <= 4; v++ {
		time.Sleep(5 * time.Millisecond)
		est.InstallVersion(models[v], tbl, rows, v)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the swaps: everything answers as version 4, bit-identically.
	post, err := est.SelectivityBatchCtx(context.Background(), qs, ServeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if post[0].ModelVersion != 4 || est.ModelVersion() != 4 {
		t.Fatalf("post-swap version %d (estimator says %d)", post[0].ModelVersion, est.ModelVersion())
	}
	if err := checkBatch(post); err != nil {
		t.Fatal(err)
	}
}

// TestRangeQueryValueOrderAfterExtension is the append-then-query regression:
// appended rows introduce an unseen value that sorts BEFORE the whole existing
// domain, a rebuild refresh grows the model over the extended dictionary, and
// range predicates on the serving path must then compare by value — in pure
// code order the arrival-ordered tail code (numerically the largest) would
// land on the wrong side of every range.
func TestRangeQueryValueOrderAfterExtension(t *testing.T) {
	tbl := facadeTable(t, 1000)
	cfg := hotswapConfig()
	cfg.Epochs = 1
	cfg.Lifecycle = &LifecycleConfig{RefreshEpochs: 1}
	est, err := Build(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// a = -1 is unseen and sorts before every existing a ∈ [0,6).
	rows := make([][]string, 96)
	for i := range rows {
		rows[i] = []string{"-1", strconv.Itoa(i % 9), strconv.Itoa(i % 4)}
	}
	if _, err := est.Append(rows); err != nil {
		t.Fatal(err)
	}
	res, err := est.RefreshCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatal("dictionary extension did not force a rebuild refresh")
	}

	snap := est.Lifecycle().Snapshot()
	tail, ok := snap.Cols[0].CodeOfInt(-1)
	if !ok {
		t.Fatal("appended value -1 missing from the dictionary")
	}
	if !snap.Cols[0].Extended() || int(tail) < snap.Cols[0].Ext {
		t.Fatalf("value -1 got code %d, want an arrival-ordered tail code (Ext %d)", tail, snap.Cols[0].Ext)
	}

	// a <= 2 (literal code 2 = value 2) must admit the tail code; a >= 2 must
	// not. Both are checked against the table-aware reference compiler.
	le := Query{Preds: []Predicate{{Col: 0, Op: OpLe, Code: 2}}}
	ge := Query{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 2}}}
	for _, tc := range []struct {
		q        Query
		wantTail bool
	}{{le, true}, {ge, false}} {
		req, err := compileFor(est.cur.Load(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		reg := req.Region
		if got := reg.Cols[0].Valid[tail]; got != tc.wantTail {
			t.Fatalf("%s: tail code %d (value -1) valid=%v, want %v",
				tc.q.String(snap), tail, got, tc.wantTail)
		}
		want, err := Compile(tc.q, snap)
		if err != nil {
			t.Fatal(err)
		}
		for c := range reg.Cols[0].Valid {
			if reg.Cols[0].Valid[c] != want.Cols[0].Valid[c] {
				t.Fatalf("%s: serving compile disagrees with table compile at code %d",
					tc.q.String(snap), c)
			}
		}
	}

	// The full serving path answers on the extended schema without error.
	if _, err := est.Selectivity(le); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeLifecycleEndToEnd drives the public wiring: Build with
// Config.Lifecycle, Append shifted rows, Drift trips, RefreshCtx swaps in
// version 2, and subsequent results carry the new version id.
func TestFacadeLifecycleEndToEnd(t *testing.T) {
	tbl := facadeTable(t, 1500)
	dir := t.TempDir()
	cfg := hotswapConfig()
	cfg.Epochs = 4
	cfg.Lifecycle = &LifecycleConfig{
		NLLThreshold: 0.1, TVDThreshold: 0.5, MinDriftRows: 64,
		RefreshEpochs:  2,
		CheckpointPath: filepath.Join(dir, "lc.ckpt"),
		RegistryDir:    filepath.Join(dir, "registry"),
	}
	est, err := Build(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.ModelVersion() != 1 || est.Lifecycle() == nil {
		t.Fatalf("bootstrap version %d, lifecycle %v", est.ModelVersion(), est.Lifecycle())
	}
	if vs := est.Versions(); len(vs) != 1 || vs[0].ID != 1 {
		t.Fatalf("bootstrap registry %+v", vs)
	}

	// Shifted correlation: b no longer tracks 2a, c shifts by one.
	shifted := make([][]string, 256)
	for i := range shifted {
		a := i % 6
		b := (a*2 + 5) % 9
		c := (a + b + 1) % 4
		shifted[i] = []string{strconv.Itoa(a), strconv.Itoa(b), strconv.Itoa(c)}
	}
	added, err := est.Append(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if added != 256 {
		t.Fatalf("appended %d rows", added)
	}
	drift, err := est.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if drift.AppendedRows != 256 || !drift.Stale {
		t.Fatalf("drift %+v, want 256 appended rows and stale", drift)
	}

	res, err := est.RefreshCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || est.ModelVersion() != 2 {
		t.Fatalf("refresh to version %d, estimator at %d", res.Version, est.ModelVersion())
	}
	if vs := est.Versions(); len(vs) != 2 || vs[1].ID != 2 {
		t.Fatalf("registry after refresh %+v", vs)
	}
	results, err := est.SelectivityBatchCtx(context.Background(),
		[]Query{{Preds: []Predicate{{Col: 0, Op: OpLe, Code: 3}}}}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ModelVersion != 2 {
		t.Fatalf("result version %d, want 2", results[0].ModelVersion)
	}
	// Cardinality follows the grown snapshot's row count.
	card, err := est.Cardinality(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(tbl.NumRows()); card <= want {
		t.Fatalf("cardinality %v does not reflect the %d appended rows", card, added)
	}

	// Lifecycle disabled: the facade methods say so.
	plain, err := Build(facadeTable(t, 500), hotswapConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Append(shifted); err != ErrLifecycleDisabled {
		t.Fatalf("Append without lifecycle: %v", err)
	}
	if _, err := plain.RefreshCtx(context.Background()); err != ErrLifecycleDisabled {
		t.Fatalf("RefreshCtx without lifecycle: %v", err)
	}
}
