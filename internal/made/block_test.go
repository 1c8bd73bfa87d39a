package made

import (
	"math/rand"
	"testing"
)

// TestBlockWalkMatchesReference drives the AdvanceBlock/DecodeBlock API the
// way the fused serving engine does — whole-column wildcard skips and
// row-ranged decodes, at the height BeginSampling announced — and checks
// every decoded conditional against the training-path forward over the same
// -1-marked codes.
func TestBlockWalkMatchesReference(t *testing.T) {
	domains := []int{5, 80, 3, 100, 7, 64}
	m := New(domains, tinyConfig(21))
	ref := New(domains, tinyConfig(21))
	rng := rand.New(rand.NewSource(31))
	nc := len(domains)
	n := 13
	codes := randomCodes(rng, domains, n)
	// Columns 1 and 4 are skipped: never advanced to or decoded, and -1 in
	// every row.
	skipped := map[int]bool{1: true, 4: true}
	for r := 0; r < n; r++ {
		for col := range skipped {
			codes[r*nc+col] = -1
		}
	}

	out := allocOut(domains, n)
	want := allocOut(domains, n)
	m.BeginSampling(n)
	for col := 0; col < nc; col++ {
		if skipped[col] {
			continue
		}
		m.AdvanceBlock(codes, n, col)
		condReference(ref, codes, n, col, want)
		// Decode a row range at a time, as the tiled walk does.
		for _, rr := range [][2]int{{0, 5}, {5, 12}, {12, n}} {
			m.DecodeBlock(col, rr[0], rr[1], out[rr[0]:rr[1]])
			if d := maxCondDiff(domains, out[rr[0]:rr[1]], want[rr[0]:rr[1]], col); d > 1e-5 {
				t.Fatalf("col %d rows %v differ by %g", col, rr, d)
			}
		}
	}
}

// TestBlockWalkGuards checks the contract panics: decode without advance,
// backward advances and advances at any height but the one BeginSampling
// announced must fail loudly rather than serve stale state.
func TestBlockWalkGuards(t *testing.T) {
	m := New([]int{5, 9, 4}, tinyConfig(22))
	m.BeginSampling(4)
	codes := make([]int32, 4*3)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DecodeBlock before AdvanceBlock", func() {
		out := allocOut([]int{5, 9, 4}, 4)
		m.DecodeBlock(0, 0, 4, out)
	})
	m.AdvanceBlock(codes, 4, 1)
	mustPanic("backward AdvanceBlock", func() { m.AdvanceBlock(codes, 4, 0) })
	mustPanic("growing batch", func() { m.AdvanceBlock(codes, 6, 2) })
	mustPanic("shrinking batch", func() { m.AdvanceBlock(codes, 3, 2) })
	mustPanic("shrinking ranged batch", func() { m.BeginAdvanceRows(3, 2) })
}
