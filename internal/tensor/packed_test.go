package tensor

import (
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

// TestLinearReLUCols checks the column-window product against running the
// full fused kernel and splicing: columns below j0 must be untouched, columns
// at and above j0 must match the full product bitwise (same kernel, same
// operand panels).
func TestLinearReLUCols(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][3]int{{5, 12, 11}, {16, 32, 32}, {7, 9, 4}, {3, 6, 1}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		full := New(m, n)
		LinearReLU(full, a, b, bias, true)
		for j0 := 0; j0 <= n+1; j0++ {
			got := New(m, n)
			for i := range got.Data {
				got.Data[i] = -7 // sentinel: columns < j0 must keep it
			}
			LinearReLUCols(got, a, b, bias, true, j0)
			for r := 0; r < m; r++ {
				row, fullRow := got.Row(r), full.Row(r)
				for j := 0; j < n; j++ {
					if j < j0 {
						if row[j] != -7 {
							t.Fatalf("%v j0=%d: column %d below window was written", sh, j0, j)
						}
					} else if d := math.Abs(float64(row[j] - fullRow[j])); d > 1e-5 {
						t.Fatalf("%v j0=%d: window column %d differs by %g", sh, j0, j, d)
					}
				}
			}
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

// TestLinearReLUBandMatchesCols checks that refreshing adjacent interior bands
// reproduces (bitwise) the suffix refresh of LinearReLUCols over their union.
func TestLinearReLUBandMatchesCols(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, k, n = 19, 31, 41
	a := randomMatrix(rng, m, k)
	b := randomMatrix(rng, k, n)
	bias := make([]float32, n)
	for j := range bias {
		bias[j] = float32(rng.NormFloat64())
	}
	const j0 = 11
	want := New(m, n)
	want.Fill(-7)
	LinearReLUCols(want, a, b, bias, true, j0)

	got := New(m, n)
	got.Fill(-7)
	for _, band := range [][2]int{{j0, 18}, {18, 18}, {18, 33}, {33, n}} {
		LinearReLUBand(got, a, b, bias, true, band[0], band[1])
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// scratchTileBody is packedBody's FMA branch with every 8-row tile routed
// through the 8×8 scratch and storeTile, as it ran before full tiles were
// stored from registers: the reference the direct store must match bit for
// bit.
func scratchTileBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
	k, n := pb.K, pb.N
	var tile [packMR * packNR]float32
	i := 0
	for ; i+packMR <= a.Rows; i += packMR {
		for p := 0; p < pb.panels(); p++ {
			j0 := p * packNR
			fmaStore8x8(&a.Data[i*lda], lda, &pb.data[p*k*packNR], k, &tile[0], packNR, nil, tileStore)
			storeTile(c, tile[:], i, packMR, cOff+j0, j0, min(packNR, n-j0), bias, relu, accumulate)
		}
	}
	for ; i < a.Rows; i++ {
		for p := 0; p < pb.panels(); p++ {
			j0 := p * packNR
			fmaTile1x8(&a.Data[i*lda], &pb.data[p*k*packNR], k, &tile[0])
			storeTile(c, tile[:], i, 1, cOff+j0, j0, min(packNR, n-j0), bias, relu, accumulate)
		}
	}
}

// TestFmaStoreMatchesScratchTile checks the register-resident epilogue of
// every mode against the scratch-tile path, bit for bit, on shapes with
// partial panels, a K prefix (lda > K), a column window (cOff > 0) and row
// counts that are not multiples of 8. NaN and -0 are planted in A, the bias
// and C's prior contents: the epilogue ReLU must keep NaN (`if v < 0`).
func TestFmaStoreMatchesScratchTile(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(53))
	modes := []struct {
		name             string
		bias, relu, accu bool
	}{
		{"store", false, false, false},
		{"accumulate", false, false, true},
		{"bias", true, false, false},
		{"bias+relu", true, true, false},
		{"relu", false, true, false},
	}
	for _, rows := range []int{8, 13, 21, 3} {
		for _, k := range []int{1, 5, 16, 37} {
			for _, kPad := range []int{0, 3} {
				for _, n := range []int{8, 11, 24, 29} {
					for _, cOff := range []int{0, 5} {
						lda := k + kPad
						a := randomMatrix(rng, rows, lda)
						a.Data[rng.Intn(len(a.Data))] = nan32
						a.Data[rng.Intn(len(a.Data))] = negZero
						for i := 0; i < rows; i += 2 {
							a.Data[i*lda] = negZero
						}
						b := randomMatrix(rng, k, n)
						b.Data[rng.Intn(len(b.Data))] = negZero
						var pb PackedB
						pb.Pack(b)
						bias := make([]float32, n)
						for j := range bias {
							bias[j] = float32(rng.NormFloat64())
						}
						bias[rng.Intn(n)] = nan32
						bias[rng.Intn(n)] = negZero
						prior := randomMatrix(rng, rows, cOff+n+2)
						prior.Data[rng.Intn(len(prior.Data))] = nan32
						prior.Data[rng.Intn(len(prior.Data))] = negZero

						for _, m := range modes {
							var bs []float32
							if m.bias {
								bs = bias
							}
							got := prior.Clone()
							want := prior.Clone()
							MatMulPackedPrefix(got, a, &pb, bs, m.relu, m.accu, cOff)
							scratchTileBody(want, a, lda, &pb, bs, m.relu, m.accu, cOff)
							for i := range want.Data {
								if !sameBits32(got.Data[i], want.Data[i]) {
									t.Fatalf("%s rows=%d k=%d lda=%d n=%d cOff=%d: element (%d,%d) = %v (%#x), want %v (%#x)",
										m.name, rows, k, lda, n, cOff, i/want.Cols, i%want.Cols,
										got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
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

// TestTileDstRejectsOutOfBounds checks the Go-side guard in front of every
// assembly store: an 8×8 window that leaves C's rows or columns panics
// instead of writing.
func TestTileDstRejectsOutOfBounds(t *testing.T) {
	c := New(16, 12)
	if p := tileDst(c, 8, 4); p != &c.Data[8*12+4] {
		t.Fatal("in-bounds tile at (8,4) misaddressed")
	}
	for _, at := range [][2]int{{9, 0}, {0, 5}, {-1, 0}, {0, -1}, {16, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("tile at %v in a 16×12 matrix did not panic", at)
				}
			}()
			tileDst(c, at[0], at[1])
		}()
	}
	short := &Matrix{Rows: 8, Cols: 8, Data: make([]float32, 63)}
	defer func() {
		if recover() == nil {
			t.Fatal("tile over a short data slice did not panic")
		}
	}()
	tileDst(short, 0, 0)
}
