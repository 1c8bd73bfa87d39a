package naru

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/table"
)

// facadeTable builds a correlated 3-column table through the public-ish
// builder path.
func facadeTable(t *testing.T, rows int) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b := table.NewBuilder("t", []string{"a", "b", "c"})
	for i := 0; i < rows; i++ {
		a := rng.Intn(6)
		bb := (a*2 + rng.Intn(2)) % 9
		c := (a + bb) % 4
		if err := b.AppendRow([]string{strconv.Itoa(a), strconv.Itoa(bb), strconv.Itoa(c)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func buildSmall(t *testing.T, tbl *Table) *Estimator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.HiddenSizes = []int{48, 48}
	cfg.Epochs = 8
	cfg.Samples = 1500
	cfg.Seed = 3
	est, err := Build(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestBuildAndEstimate(t *testing.T) {
	tbl := facadeTable(t, 4000)
	est := buildSmall(t, tbl)
	q := Query{Preds: []Predicate{
		{Col: 0, Op: OpLe, Code: 2},
		{Col: 1, Op: OpGe, Code: 3},
	}}
	sel, err := est.Selectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueSelectivity(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(tbl.NumRows())
	if e := metrics.QError(sel*n, truth*n); e > 3 {
		t.Fatalf("q-error %.2f too high (est %v truth %v)", e, sel, truth)
	}
	card, err := est.Cardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(card-sel*n) > 1e-9 {
		t.Fatal("Cardinality inconsistent with Selectivity")
	}
}

func TestBuildRejectsBadQuery(t *testing.T) {
	tbl := facadeTable(t, 500)
	est := buildSmall(t, tbl)
	if _, err := est.Selectivity(Query{Preds: []Predicate{{Col: 99, Op: OpEq}}}); err == nil {
		t.Fatal("want error for bad column")
	}
	if _, err := est.Selectivity(Query{Preds: []Predicate{{Col: 0, Op: OpEq, Code: 1000}}}); err == nil {
		t.Fatal("want error for out-of-domain literal")
	}
}

func TestEntropyGapSmallAfterTraining(t *testing.T) {
	tbl := facadeTable(t, 4000)
	est := buildSmall(t, tbl)
	if gap := est.EntropyGapBits(tbl); gap > 2 {
		t.Fatalf("entropy gap %.2f bits too large", gap)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := facadeTable(t, 3000)
	est := buildSmall(t, tbl)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Samples = 1500
	cfg.Seed = 3
	loaded, err := LoadEstimator(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Preds: []Predicate{{Col: 0, Op: OpEq, Code: 2}}}
	a, err := est.Selectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Selectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same weights, same seed, same sampler → identical estimates.
	if a != b {
		t.Fatalf("loaded estimator differs: %v vs %v", a, b)
	}
	c1, _ := est.Cardinality(q)
	c2, _ := loaded.Cardinality(q)
	if c1 != c2 {
		t.Fatalf("cardinality differs after load: %v vs %v", c1, c2)
	}
}

func TestDisjunctionInclusionExclusion(t *testing.T) {
	tbl := facadeTable(t, 4000)
	est := buildSmall(t, tbl)
	q1 := Query{Preds: []Predicate{{Col: 0, Op: OpEq, Code: 1}}}
	q2 := Query{Preds: []Predicate{{Col: 0, Op: OpEq, Code: 2}}}
	dis, err := est.SelectivityDisjunction([]Query{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint branches: union = sum.
	s1, _ := est.Selectivity(q1)
	s2, _ := est.Selectivity(q2)
	if math.Abs(dis-(s1+s2)) > 0.02 {
		t.Fatalf("disjoint union %v vs s1+s2 %v", dis, s1+s2)
	}
	// Same branch twice: union = the branch (A ∪ A = A).
	same, err := est.SelectivityDisjunction([]Query{q1, q1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same-s1) > 0.02 {
		t.Fatalf("A∪A = %v, want ≈ %v", same, s1)
	}
	if _, err := est.SelectivityDisjunction(make([]Query, 17)); err == nil {
		t.Fatal("want error for oversized disjunction")
	}
	empty, err := est.SelectivityDisjunction(nil)
	if err != nil || empty != 0 {
		t.Fatalf("empty disjunction: %v, %v", empty, err)
	}
}

func TestRefreshImprovesOnNewData(t *testing.T) {
	// Train on a skewed slice, ingest the rest through the lifecycle, and
	// refresh on the grown snapshot; the entropy gap on the full table should
	// shrink.
	rng := rand.New(rand.NewSource(2))
	b := table.NewBuilder("drift", []string{"x", "y"})
	for i := 0; i < 6000; i++ {
		var x int
		if i < 3000 {
			x = rng.Intn(3) // first half: low values
		} else {
			x = 3 + rng.Intn(3) // second half: high values
		}
		y := (x + rng.Intn(2)) % 6
		if err := b.AppendRow([]string{strconv.Itoa(x), strconv.Itoa(y)}); err != nil {
			t.Fatal(err)
		}
	}
	full, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	firstHalf := full.SliceRows(0, 3000)
	cfg := DefaultConfig()
	cfg.HiddenSizes = []int{32, 32}
	cfg.Epochs = 10
	cfg.Samples = 500
	cfg.Lifecycle = &LifecycleConfig{RefreshEpochs: 10}
	est, err := Build(firstHalf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := est.EntropyGapBits(full)
	// SliceRows shares the full table's dictionaries, so the second half's
	// codes are valid in the snapshot.
	codes := make([]int32, 0, 3000*full.NumCols())
	row := make([]int32, full.NumCols())
	for r := 3000; r < full.NumRows(); r++ {
		full.Row(r, row)
		codes = append(codes, row...)
	}
	if _, err := est.AppendCodes(codes, full.NumRows()-3000); err != nil {
		t.Fatal(err)
	}
	if _, err := est.RefreshCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := est.EntropyGapBits(full)
	if after >= before {
		t.Fatalf("refresh did not reduce staleness: %.3f → %.3f bits", before, after)
	}
}

func TestLoadCSVFacade(t *testing.T) {
	csv := "x,y\n1,a\n2,b\n1,a\n"
	tbl, err := LoadCSV(strings.NewReader(csv), "mini")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 || tbl.NumCols() != 2 {
		t.Fatalf("%d×%d", tbl.NumRows(), tbl.NumCols())
	}
}

func TestBuildEmptyTableErrors(t *testing.T) {
	tbl := facadeTable(t, 100)
	empty := tbl.SliceRows(0, 0)
	if _, err := Build(empty, DefaultConfig()); err == nil {
		t.Fatal("want error for empty table")
	}
}

func TestConfigDefaultsFill(t *testing.T) {
	c := Config{}.withDefaults()
	if len(c.HiddenSizes) == 0 || c.Samples == 0 || c.Epochs == 0 || c.BatchSize == 0 || c.LR == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}
