package made

import (
	"math"
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

// TestBlockDecodeSkipsNilRows: a decode whose out holds nil rows decodes
// only the others, each bit-identical to a decode of the whole range, and
// never writes a skipped row — serially (the gathered rows change the GEMM's
// row bands) and in the concurrent-range mode PrepareDecode arms, where two
// ranges gather into disjoint rows of the full-height scratch.
func TestBlockDecodeSkipsNilRows(t *testing.T) {
	domains := []int{5, 80, 3, 100, 7, 64}
	m := New(domains, tinyConfig(23))
	rng := rand.New(rand.NewSource(41))
	const n = 37
	codes := randomCodes(rng, domains, n)
	full, part := allocOut(domains, n), allocOut(domains, n)
	m.BeginSampling(n)
	for col := range domains {
		m.AdvanceBlock(codes, n, col)
		m.DecodeBlock(col, 0, n, full)
		for _, shared := range []bool{false, true} {
			want := make([]bool, n)
			view := make([][]float64, n)
			for r := range view {
				for v := range part[r] {
					part[r][v] = -1
				}
				if want[r] = rng.Float64() < 0.4; want[r] {
					view[r] = part[r]
				}
			}
			if shared {
				m.PrepareDecode(col)
				m.DecodeBlock(col, 0, 20, view[:20])
				m.DecodeBlock(col, 20, n, view[20:])
			} else {
				m.DecodeBlock(col, 3, n, view[3:])
			}
			for r := range view {
				decoded := want[r] && (shared || r >= 3)
				for v := 0; v < domains[col]; v++ {
					if !decoded && part[r][v] != -1 {
						t.Fatalf("col %d shared=%v: skipped row %d written", col, shared, r)
					}
					if decoded && math.Float64bits(part[r][v]) != math.Float64bits(full[r][v]) {
						t.Fatalf("col %d shared=%v row %d code %d: %v, whole-range decode %v",
							col, shared, r, v, part[r][v], full[r][v])
					}
				}
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
