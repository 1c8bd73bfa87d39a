package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMul is the reference product the packed kernel is checked against.
func refMatMul(c, a, b *Matrix, accumulate bool) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if accumulate {
				c.Set(i, j, c.At(i, j)+s)
			} else {
				c.Set(i, j, s)
			}
		}
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.Randn(rng, 1)
	return m
}

func maxAbsDiff(a, b *Matrix) float64 {
	var mx float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > mx {
			mx = d
		}
	}
	return mx
}

// TestMatMulPackedMatchesNaive sweeps shapes that exercise every remainder
// path of the micro-kernel (row bands, tail panels, tiny K).
func TestMatMulPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 3, 9}, {8, 128, 128},
		{13, 17, 19}, {64, 33, 31}, {100, 1, 6}, {2, 64, 65},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		want := New(m, n)
		refMatMul(want, a, b, false)

		var pb PackedB
		pb.Pack(b)
		got := New(m, n)
		MatMulPacked(got, a, &pb, nil, false, false)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("%dx%dx%d: packed differs from naive by %g", m, k, n, d)
		}

		// Accumulate path.
		got2 := randomMatrix(rng, m, n)
		want2 := got2.Clone()
		refMatMul(want2, a, b, true)
		MatMulPacked(got2, a, &pb, nil, false, true)
		if d := maxAbsDiff(got2, want2); d > 1e-4 {
			t.Fatalf("%dx%dx%d: packed accumulate differs by %g", m, k, n, d)
		}
	}
}

// TestMatMulPackedEpilogue checks the fused bias and bias+ReLU epilogues.
func TestMatMulPackedEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range [][3]int{{6, 10, 9}, {17, 32, 30}, {4, 8, 4}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want := New(m, n)
		refMatMul(want, a, b, false)
		for r := 0; r < m; r++ {
			row := want.Row(r)
			for j := range row {
				row[j] += bias[j]
			}
		}
		got := New(m, n)
		LinearReLU(got, a, b, bias, false)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("%v: bias epilogue differs by %g", sh, d)
		}

		for _, row := range [][]float32{want.Data} {
			for j, v := range row {
				if v < 0 {
					row[j] = 0
				}
			}
		}
		LinearReLU(got, a, b, bias, true)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("%v: bias+ReLU epilogue differs by %g", sh, d)
		}
	}
}

// TestPackTransMatchesTransB checks that PackTrans + packed kernel agrees
// with the definition C = A·Bᵀ.
func TestPackTransMatchesTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][3]int{{5, 7, 3}, {16, 64, 50}, {33, 31, 9}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k) // stored n×k; logical operand is Bᵀ (k×n)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for kk := 0; kk < k; kk++ {
					s += a.At(i, kk) * b.At(j, kk)
				}
				want.Set(i, j, s)
			}
		}
		var pb PackedB
		pb.PackTrans(b)
		got := New(m, n)
		MatMulPacked(got, a, &pb, nil, false, false)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("%v: PackTrans product differs by %g", sh, d)
		}
	}
}

// TestMatMulDispatchEquivalence drives the public MatMul/MatMulTransB over
// sizes straddling the packed-dispatch threshold and checks both routes give
// the same answer.
func TestMatMulDispatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, sh := range [][3]int{{4, 16, 16}, {64, 64, 64}, {200, 128, 96}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		want := New(m, n)
		refMatMul(want, a, b, false)
		got := New(m, n)
		MatMul(got, a, b, false)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("MatMul %v differs from naive by %g", sh, d)
		}

		bt := randomMatrix(rng, n, k)
		wantT := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for kk := 0; kk < k; kk++ {
					s += a.At(i, kk) * bt.At(j, kk)
				}
				wantT.Set(i, j, s)
			}
		}
		gotT := New(m, n)
		MatMulTransB(gotT, a, bt, false)
		if d := maxAbsDiff(gotT, wantT); d > 1e-3 {
			t.Fatalf("MatMulTransB %v differs from naive by %g", sh, d)
		}
	}
}

// subMatrix copies the block src[i0:i1, j0:j1) into a fresh matrix.
func subMatrix(src *Matrix, i0, i1, j0, j1 int) *Matrix {
	out := New(i1-i0, j1-j0)
	for r := i0; r < i1; r++ {
		copy(out.Row(r-i0), src.Row(r)[j0:j1])
	}
	return out
}

// TestPackRangeMatchesPackedFull checks that a product against a PackRange
// window equals (bitwise) the plain packed product of the equivalent copied
// sub-operands, across offsets that exercise panel remainders.
func TestPackRangeMatchesPackedFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := randomMatrix(rng, 37, 53)
	windows := [][4]int{
		{0, 37, 0, 53}, {0, 37, 8, 24}, {3, 20, 5, 53}, {0, 12, 13, 14},
		{36, 37, 0, 8}, {0, 0, 0, 0}, {5, 5, 7, 19},
	}
	for _, w := range windows {
		i0, i1, j0, j1 := w[0], w[1], w[2], w[3]
		a := randomMatrix(rng, 9, i1-i0)
		var pb PackedB
		pb.PackRange(b, i0, i1, j0, j1)
		got := New(9, j1-j0)
		if j1 > j0 {
			MatMulPacked(got, a, &pb, nil, false, false)
		}
		var full PackedB
		bw := subMatrix(b, i0, i1, j0, j1)
		full.Pack(bw)
		want := New(9, j1-j0)
		if j1 > j0 {
			MatMulPacked(want, a, &full, nil, false, false)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("window %v: element %d differs: %g vs %g", w, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulPackedPrefixBitwise checks the K-prefix product against the full
// packed product where the weight tail is exactly zero: masked head blocks
// guarantee zero tail weights, and appending exact-zero fused terms to the
// same-order prefix accumulation must not change a single bit.
func TestMatMulPackedPrefixBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, kFull, n = 21, 47, 29
	for _, kc := range []int{0, 1, 8, 17, 47} {
		a := randomMatrix(rng, m, kFull)
		b := New(kFull, n) // zero tail below row kc, like a masked head block
		for r := 0; r < kc; r++ {
			for j := 0; j < n; j++ {
				b.Set(r, j, float32(rng.NormFloat64()))
			}
		}
		bias := make([]float32, n)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64())
		}

		var full PackedB
		full.Pack(b)
		want := New(m, n)
		MatMulPacked(want, a, &full, bias, false, false)

		var pref PackedB
		pref.PackRange(b, 0, kc, 0, n)
		got := New(m, n)
		MatMulPackedPrefix(got, a, &pref, bias, false, false, 0)

		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("kc=%d: element %d differs: %g vs %g", kc, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// withAVX512 runs f with the AVX-512 panel switch set to on, restoring it
// afterwards. Operands packed inside f keep the layout they were packed with.
func withAVX512(on bool, f func()) {
	prev := useAVX512
	useAVX512 = on
	defer func() { useAVX512 = prev }()
	f()
}

// panelWidths lists the AVX-512 switch settings this CPU can run: the AVX2
// layout always, the ZMM layouts only where CPUID reports them.
func panelWidths() []bool {
	if useAVX512 {
		return []bool{false, true}
	}
	return []bool{false}
}

// scratchTileBody is packedBody's accelerated branch with every tile routed
// through a scratch tile (computed by the same kernel in store mode) and
// storeTile, as the AVX2 path ran before full tiles were stored from
// registers: the reference the register epilogue must match bit for bit, at
// every panel width.
func scratchTileBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
	k, n, nr := pb.K, pb.N, pb.nr
	var tile [packMR * 32]float32
	full := colMask(nr)
	i := 0
	for ; i+packMR <= a.Rows; i += packMR {
		for j0 := 0; j0 < n; j0 += nr {
			ai, panel := &a.Data[i*lda], &pb.data[j0*k]
			switch nr {
			case 8:
				fmaStore8x8(ai, lda, panel, k, &tile[0], nr, nil, tileStore)
			case 16:
				fmaStore8x16(ai, lda, panel, k, &tile[0], nr, nil, tileStore, full)
			default:
				fmaStore8x32(ai, lda, panel, k, &tile[0], nr, nil, tileStore, full)
			}
			for r := 0; r < packMR; r++ {
				storeTile(c, tile[r*nr:], i+r, 1, cOff+j0, j0, min(nr, n-j0), bias, relu, accumulate)
			}
		}
	}
	for ; i < a.Rows; i++ {
		for j0 := 0; j0 < n; j0 += nr {
			ai, panel := &a.Data[i*lda], &pb.data[j0*k]
			switch nr {
			case 8:
				fmaTile1x8(ai, panel, k, &tile[0])
			case 16:
				fmaStore1x16(ai, panel, k, &tile[0], nil, tileStore, full)
			default:
				fmaStore1x32(ai, panel, k, &tile[0], nil, tileStore, full)
			}
			storeTile(c, tile[:], i, 1, cOff+j0, j0, min(nr, n-j0), bias, relu, accumulate)
		}
	}
}

// epilogueModes names the five epilogues by the product flags that select
// them.
var epilogueModes = []struct {
	name             string
	bias, relu, accu bool
}{
	{"store", false, false, false},
	{"accumulate", false, false, true},
	{"bias", true, false, false},
	{"bias+relu", true, true, false},
	{"relu", false, true, false},
}

// kernelCase is one product's operands with NaN and -0 planted in A, the
// bias and C's prior contents; A carries lda-k padding columns and C cOff
// columns before the product's window and two after it.
type kernelCase struct {
	a, b, prior *Matrix
	bias        []float32
	lda, cOff   int
}

// Quiet NaNs with distinct payloads and signs. Row 0 of A gets one, so row
// 0's tile is NaN; one element of row 0 of C's window and one bias entry get
// the others, so the accumulate and bias adds there meet two NaNs, and the
// payload that survives shows which operand came first.
var (
	nanA    = math.Float32frombits(0x7fc00a0a)
	nanC    = math.Float32frombits(0xffc00c0c)
	nanBias = math.Float32frombits(0x7fc00b0b)
)

func newKernelCase(rng *rand.Rand, rows, k, kPad, n, cOff int) kernelCase {
	lda := k + kPad
	a := randomMatrix(rng, rows, lda)
	a.Data[rng.Intn(len(a.Data))] = nan32
	a.Data[rng.Intn(len(a.Data))] = negZero
	for i := 0; i < rows; i += 2 {
		a.Data[i*lda] = negZero
	}
	a.Data[rng.Intn(k)] = nanA
	b := randomMatrix(rng, k, n)
	b.Data[rng.Intn(len(b.Data))] = negZero
	bias := make([]float32, n)
	for j := range bias {
		bias[j] = float32(rng.NormFloat64())
	}
	bias[rng.Intn(n)] = nan32
	bias[rng.Intn(n)] = negZero
	bias[rng.Intn(n)] = nanBias
	prior := randomMatrix(rng, rows, cOff+n+2)
	prior.Data[rng.Intn(len(prior.Data))] = nan32
	prior.Data[rng.Intn(len(prior.Data))] = negZero
	prior.Data[cOff+rng.Intn(n)] = nanC
	return kernelCase{a: a, b: b, prior: prior, bias: bias, lda: lda, cOff: cOff}
}

// requireSamePacks runs kc's product in every epilogue mode against two
// packings of the same B and requires the same bits from both.
func requireSamePacks(t *testing.T, what string, kc kernelCase, got, want *PackedB) {
	t.Helper()
	for _, m := range epilogueModes {
		var bs []float32
		if m.bias {
			bs = kc.bias
		}
		gc, wc := kc.prior.Clone(), kc.prior.Clone()
		MatMulPackedPrefix(gc, kc.a, got, bs, m.relu, m.accu, kc.cOff)
		MatMulPackedPrefix(wc, kc.a, want, bs, m.relu, m.accu, kc.cOff)
		requireSameBits(t, fmt.Sprintf("%s %s nr=%d", m.name, what, got.nr), gc, wc)
	}
}

// requireSameBits fails the test at the first element where got and want
// differ in any bit.
func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if !sameBits32(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), want %v (%#x)", what, i/want.Cols, i%want.Cols,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestFmaStoreMatchesScratchTile checks the register-resident epilogue of
// every mode, at every panel width this CPU runs, against the scratch-tile
// path, bit for bit, on shapes with partial panels, a K prefix (lda > K), a
// column window (cOff > 0) and row counts that are not multiples of 8, through
// MatMulPackedPrefix and, where A is exactly K wide, MatMulPackedWindow. NaN
// and -0 are planted in A, the bias and C's prior contents: the epilogue
// ReLU must keep NaN (`if v < 0`).
func TestFmaStoreMatchesScratchTile(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(53))
	for _, wide := range panelWidths() {
		for _, rows := range []int{8, 13, 21, 3} {
			for _, k := range []int{1, 5, 16, 37} {
				for _, kPad := range []int{0, 3} {
					for _, n := range []int{8, 11, 24, 29, 37, 64} {
						for _, cOff := range []int{0, 5} {
							kc := newKernelCase(rng, rows, k, kPad, n, cOff)
							var pb PackedB
							withAVX512(wide, func() { pb.Pack(kc.b) })
							for _, m := range epilogueModes {
								var bs []float32
								if m.bias {
									bs = kc.bias
								}
								got := kc.prior.Clone()
								want := kc.prior.Clone()
								MatMulPackedPrefix(got, kc.a, &pb, bs, m.relu, m.accu, cOff)
								scratchTileBody(want, kc.a, kc.lda, &pb, bs, m.relu, m.accu, cOff)
								what := fmt.Sprintf("%s nr=%d rows=%d k=%d lda=%d n=%d cOff=%d",
									m.name, pb.nr, rows, k, kc.lda, n, cOff)
								requireSameBits(t, what, got, want)
								if kPad == 0 {
									// A full-width A: the window entry must write
									// the same bits into the same columns.
									win := kc.prior.Clone()
									MatMulPackedWindow(win, kc.a, &pb, bs, m.relu, m.accu, cOff)
									requireSameBits(t, "window "+what, win, want)
								}
							}
						}
					}
				}
			}
		}
	}

	// The two ReLUs differ on NaN: the epilogue keeps it, the fold's
	// PositivePart maps it to +0.
	a := New(8, 1)
	a.Data[1] = 2
	a.Data[3] = nan32
	b := New(1, 8)
	for j := range b.Data {
		b.Data[j] = -1
	}
	var pb PackedB
	pb.Pack(b)
	c := New(8, 8)
	MatMulPacked(c, a, &pb, nil, true, false)
	if v := c.At(3, 0); v == v {
		t.Fatalf("epilogue ReLU mapped NaN to %v", v)
	}
	if v := c.At(1, 0); !sameBits32(v, 0) {
		t.Fatalf("epilogue ReLU of 2·-1 = %v (%#x), want +0", v, math.Float32bits(v))
	}
	pos := make([]float32, 8)
	PositivePart(pos, c.Row(3))
	if !sameBits32(pos[0], 0) {
		t.Fatalf("PositivePart(NaN) = %v, want +0", pos[0])
	}
}

// TestAVX512MatchesAVX2 runs every product through the AVX-512 kernels
// (16- and 32-wide panels) and through the AVX2 kernels (8-wide panels) and
// requires the same bits: each element is the same k-ordered FMA chain on
// both paths, edge panels and remainder rows included, and the epilogues keep
// one operand order.
func TestAVX512MatchesAVX2(t *testing.T) {
	if !useFMA || !useAVX512 {
		t.Skip("no AVX-512F kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{1, 8, 9, 23, 31, 32, 33, 64, 2101} {
		for _, rows := range []int{3, 8, 21} {
			for _, k := range []int{1, 16, 37} {
				for _, kPad := range []int{0, 3} {
					cOff := 5 * kPad / 3 // the padded shapes also write a window
					kc := newKernelCase(rng, rows, k, kPad, n, cOff)
					var wide, narrow PackedB
					withAVX512(true, func() { wide.Pack(kc.b) })
					withAVX512(false, func() { narrow.Pack(kc.b) })
					if want := panelWidth(n); wide.nr != want || narrow.nr != packNR {
						t.Fatalf("n=%d: packed %d and %d wide, want %d and %d", n, wide.nr, narrow.nr, want, packNR)
					}
					requireSamePacks(t, fmt.Sprintf("n=%d rows=%d k=%d lda=%d cOff=%d", n, rows, k, kc.lda, cOff),
						kc, &wide, &narrow)
				}
			}
		}
	}
}

// TestPortableWidePanels checks that SetAccel(false) runs the portable loops
// on 16- and 32-wide packs and gives the bits it gives on 8-wide ones: the
// layout changes where a panel column lives, not the sum. It forces the wide
// layouts at pack time, so it runs on every CPU and architecture.
func TestPortableWidePanels(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	prev := SetAccel(false)
	defer SetAccel(prev)
	for _, n := range []int{9, 23, 33, 70} {
		kc := newKernelCase(rng, 13, 19, 2, n, 3)
		var wide, narrow PackedB
		withAVX512(true, func() { wide.Pack(kc.b) })
		withAVX512(false, func() { narrow.Pack(kc.b) })
		if wide.nr == packNR {
			t.Fatalf("n=%d: forced AVX-512 layout packed %d wide", n, wide.nr)
		}
		requireSamePacks(t, fmt.Sprintf("n=%d", n), kc, &wide, &narrow)
	}
}

// TestPanelWidth pins the layout rule: 32-wide panels from N = 32, 16-wide
// above 8, and the 8-wide AVX2 panel otherwise or without AVX-512.
func TestPanelWidth(t *testing.T) {
	for _, c := range []struct{ n, zmm, ymm int }{
		{1, 8, 8}, {8, 8, 8}, {9, 16, 8}, {16, 16, 8}, {31, 16, 8}, {32, 32, 8}, {33, 32, 8}, {2101, 32, 8},
	} {
		withAVX512(true, func() {
			if got := panelWidth(c.n); got != c.zmm {
				t.Errorf("AVX-512 panelWidth(%d) = %d, want %d", c.n, got, c.zmm)
			}
		})
		withAVX512(false, func() {
			if got := panelWidth(c.n); got != c.ymm {
				t.Errorf("AVX2 panelWidth(%d) = %d, want %d", c.n, got, c.ymm)
			}
		})
	}
}

// TestKernelPath checks the reported kernel name against the switches.
func TestKernelPath(t *testing.T) {
	want := "portable"
	switch {
	case useFMA && useAVX512:
		want = "avx512"
	case useFMA:
		want = "avx2"
	}
	if got := KernelPath(); got != want {
		t.Fatalf("KernelPath() = %q, want %q", got, want)
	}
	prev := SetAccel(false)
	defer SetAccel(prev)
	if got := KernelPath(); got != "portable" {
		t.Fatalf("KernelPath() with SetAccel(false) = %q, want portable", got)
	}
}

// TestTileDstRejectsOutOfBounds checks the Go-side guards in front of every
// assembly store: a tile that leaves C's rows or columns, or a bias window
// that leaves the bias, panics instead of writing.
func TestTileDstRejectsOutOfBounds(t *testing.T) {
	c := New(16, 12)
	if p := tileDst(c, 8, 4, 8, 8); p != &c.Data[8*12+4] {
		t.Fatal("in-bounds tile at (8,4) misaddressed")
	}
	if p := tileDst(c, 15, 1, 1, 11); p != &c.Data[15*12+1] {
		t.Fatal("in-bounds 1×11 row at (15,1) misaddressed")
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, at := range [][4]int{{9, 0, 8, 8}, {0, 5, 8, 8}, {-1, 0, 8, 8}, {0, -1, 8, 8}, {16, 0, 8, 8},
		{15, 0, 2, 4}, {0, 0, 1, 13}, {0, 0, 0, 4}, {0, 0, 8, 0}} {
		mustPanic(fmt.Sprintf("%d×%d tile at (%d,%d) in a 16×12 matrix", at[2], at[3], at[0], at[1]),
			func() { tileDst(c, at[0], at[1], at[2], at[3]) })
	}
	short := &Matrix{Rows: 8, Cols: 8, Data: make([]float32, 63)}
	mustPanic("tile over a short data slice", func() { tileDst(short, 0, 0, 8, 8) })
	// Data running on past Rows×Cols must not let a tile leave the rows.
	long := &Matrix{Rows: 8, Cols: 8, Data: make([]float32, 256)}
	mustPanic("tile past the last row of a longer data slice", func() { tileDst(long, 4, 0, 8, 8) })
	mustPanic("tile past the last column of a longer data slice", func() { tileDst(long, 0, 4, 8, 8) })

	bias := make([]float32, 40)
	if biasWindow(nil, 8, 32) != nil || biasWindow(bias, 8, 32) != &bias[8] {
		t.Fatal("bias window misaddressed")
	}
	mustPanic("bias window past the bias", func() { biasWindow(bias, 16, 32) })
}
