package made

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestBlockWalkMatchesReference drives the AdvanceBlock/DecodeBlock API the
// way the fused serving engine does — whole-column wildcard skips and
// row-ranged decodes, at the height BeginSampling announced — and checks
// every decoded conditional against the training-path forward over the same
// -1-marked codes. The one-hidden-layer model's head reads post[0] itself,
// so its lazily clamped units must be current when the head reads them, not
// only when a band GEMM does.
func TestBlockWalkMatchesReference(t *testing.T) {
	domains := []int{5, 80, 3, 100, 7, 64}
	oneLayer := tinyConfig(21)
	oneLayer.HiddenSizes = []int{32}
	for _, cfg := range []Config{tinyConfig(21), oneLayer} {
		name := fmt.Sprintf("hidden %v", cfg.HiddenSizes)
		m := New(domains, cfg)
		ref := New(domains, cfg)
		rng := rand.New(rand.NewSource(31))
		nc := len(domains)
		n := 13
		codes := randomCodes(rng, domains, n)
		// Columns 1 and 4 are skipped: never advanced to or decoded, and -1
		// in every row.
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
					t.Fatalf("%s: col %d rows %v differ by %g", name, col, rr, d)
				}
			}
		}
	}
}

// dmvDomains are the DMV table's column domains (internal/datagen): four
// embedded columns at the default threshold of 64 — reg_class, state,
// valid_date and color — between one-hot ones.
var dmvDomains = []int{4, 75, 89, 63, 59, 9, 2101, 225, 2, 2, 2}

// dmvConfig is the serving benchmarks' DMV architecture (bench.DMVModelConfig).
func dmvConfig(seed int64) Config {
	return Config{HiddenSizes: []int{256, 128, 256}, EmbedThreshold: 64, EmbedDim: 64, Seed: seed}
}

// gemmFold is the embedded-column fold the walk ran before fold tables:
// gather each row's embedding (zeros for a negative code) and add
// embA·W1[input block, s0:] into h1pre's window with one accumulating GEMM
// against the packed weight window.
func gemmFold(m *Model, codes []int32, n, cc int) {
	c := &m.codecs[cc]
	w1 := m.firstLinear().W.Val
	s0 := m.hidStart[0][cc+1]
	var pb tensor.PackedB
	pb.PackRange(w1, c.inOff, c.inOff+c.inW, s0, w1.Cols)
	embA := tensor.New(n, c.inW)
	for r := 0; r < n; r++ {
		if code := codes[r*len(m.domains)+cc]; code >= 0 {
			c.emb.Lookup(code, embA.Row(r))
		}
	}
	tensor.MatMulPackedWindow(m.samp.h1pre, embA, &pb, nil, false, true, s0)
}

// TestFoldTableMatchesGEMMFold checks, on a DMV-shaped model, that folding
// any code of any embedded column through its fold table leaves h1pre
// bit-identical to the gather-and-GEMM fold it replaced, with the kernels on
// and off. Every code appears, in shuffled order and with repeats, so the
// rows meet the GEMM in other row tiles than the table build's.
func TestFoldTableMatchesGEMMFold(t *testing.T) {
	for _, accel := range []bool{true, false} {
		prev := tensor.SetAccel(accel)
		defer tensor.SetAccel(prev)
		m := New(dmvDomains, dmvConfig(1)) // fresh: tables keep the bits of the path that built them
		rng := rand.New(rand.NewSource(7))
		nc := len(dmvDomains)
		for cc, c := range m.codecs {
			if !c.embedded {
				continue
			}
			n := c.domain + 37
			codes := make([]int32, n*nc)
			for r, v := range append(rng.Perm(c.domain), rng.Perm(37)...) {
				codes[r*nc+cc] = int32(v)
			}
			base := tensor.New(n, m.firstLinear().W.Val.Cols)
			base.Randn(rng, 2)
			m.BeginSampling(n)
			copy(m.samp.h1pre.Data, base.Data)
			gemmFold(m, codes, n, cc)
			want := append([]float32(nil), m.samp.h1pre.Data...)
			copy(m.samp.h1pre.Data, base.Data)
			m.foldRows(codes, cc, 0, n)
			for i, v := range m.samp.h1pre.Data {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("accel=%v col %d: row %d unit %d = %v, GEMM fold %v",
						accel, cc, i/base.Cols, i%base.Cols, v, want[i])
				}
			}
		}
	}
}

// TestFoldTablesRebuiltAfterTraining: a training step drops the fold tables
// with the packs, and the next walk builds them from the new weights, equal
// to a fresh model's build from those weights.
func TestFoldTablesRebuiltAfterTraining(t *testing.T) {
	domains := []int{5, 80, 3, 100, 7}
	m := New(domains, tinyConfig(9))
	rng := rand.New(rand.NewSource(19))
	const n = 16
	walk := func() {
		codes := randomCodes(rng, domains, n)
		out := allocOut(domains, n)
		m.BeginSampling(n)
		for col := range domains {
			m.CondBatch(codes, n, col, out)
		}
	}
	walk()
	before := m.foldTable(3).Clone()
	m.TrainStep(trainCodes(rng, domains, 64), 64, nn.NewAdam(1e-2))
	if m.packs.fold != nil {
		t.Fatal("TrainStep kept the fold tables")
	}
	walk()
	fresh, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{1, 3} {
		got, want := m.packs.fold[col], fresh.foldTable(col)
		if got == nil {
			t.Fatalf("col %d: the walk after training built no fold table", col)
		}
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("col %d: rebuilt table[%d] = %v, fresh build %v", col, i, v, want.Data[i])
			}
		}
	}
	changed := false
	for i, v := range m.packs.fold[3].Data {
		changed = changed || v != before.Data[i]
	}
	if !changed {
		t.Fatal("the training step left column 3's fold table unchanged")
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
