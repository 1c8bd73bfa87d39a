package core

import (
	"math"
	"testing"

	"repro/internal/made"
	"repro/internal/query"
)

func TestPermutedDomains(t *testing.T) {
	tbl := corrTable(t, 200, 40) // domains 8, 12, 6, 10
	doms, err := PermutedDomains(tbl, []int{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 12, 8, 6}
	for i := range want {
		if doms[i] != want[i] {
			t.Fatalf("PermutedDomains = %v, want %v", doms, want)
		}
	}
	for _, bad := range [][]int{{0, 1}, {0, 1, 2, 2}, {0, 1, 2, 9}} {
		if _, err := PermutedDomains(tbl, bad); err == nil {
			t.Fatalf("permutation %v should be rejected", bad)
		}
	}
}

// TestReversedOrderModelEstimatesCorrectly trains a MADE under the reversed
// column order and checks the order-aware estimator matches ground truth —
// the autoregressive factorization is valid under any ordering.
func TestReversedOrderModelEstimatesCorrectly(t *testing.T) {
	tbl := corrTable(t, 5000, 41)
	perm := []int{3, 2, 1, 0}
	doms, err := PermutedDomains(tbl, perm)
	if err != nil {
		t.Fatal(err)
	}
	m := made.New(doms, made.Config{HiddenSizes: []int{64, 64}, EmbedThreshold: 64, EmbedDim: 8, Seed: 42})
	if _, err := TrainWithOrder(m, tbl, perm, TrainConfig{Epochs: 12, BatchSize: 256, LR: 5e-3, Seed: 43}); err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimatorWithOrder(m, 1500, 44, perm)
	if err != nil {
		t.Fatal(err)
	}
	gen := query.NewGenerator(tbl, query.GeneratorConfig{MinFilters: 2, MaxFilters: 3, SmallDomainThreshold: 5}, 45)
	worst := 1.0
	for i := 0; i < 15; i++ {
		reg := mustRegion(t, gen.Next(), tbl)
		truth := math.Max(query.Selectivity(reg, tbl), 1.0/5000)
		got := math.Max(est.EstimateRegion(reg), 1.0/5000)
		e := got / truth
		if e < 1 {
			e = 1 / e
		}
		if e > worst {
			worst = e
		}
	}
	if worst > 8 {
		t.Fatalf("reversed-order estimator worst q-error %.2f", worst)
	}
}

func TestNewEstimatorWithOrderRejectsBadPerm(t *testing.T) {
	tbl := corrTable(t, 200, 46)
	o := NewOracle(tbl)
	if _, err := NewEstimatorWithOrder(o, 100, 1, []int{0, 0, 1, 2}); err == nil {
		t.Fatal("want error for invalid permutation")
	}
}
