package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// refSoftmax, refSoftmaxCE and refLogProb are the scalar passes the shared
// max+exp pass replaced, kept as the bit-for-bit reference: one math.Exp per
// logit and a left-to-right float64 sum.
func refSoftmax(logits []float32, out []float64) float64 {
	mx := float64(logits[0])
	for _, v := range logits[1:] {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v) - mx)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
	return mx + math.Log(sum)
}

func refSoftmaxCE(logits []float32, target int, dLogits []float32) float64 {
	mx := float64(logits[0])
	for _, v := range logits[1:] {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	lt := float64(logits[target])
	dl := dLogits[:len(logits)]
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v) - mx)
		sum += e
		dl[i] = float32(e)
	}
	loss := mx + math.Log(sum) - lt
	invSum := 1 / sum
	for i, e := range dl {
		dl[i] = float32(float64(e) * invSum)
	}
	dl[target] -= 1
	return loss
}

func refLogProb(logits []float32, target int) float64 {
	mx := float64(logits[0])
	for _, v := range logits[1:] {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v) - mx)
	}
	return float64(logits[target]) - mx - math.Log(sum)
}

// lossRows returns random logit rows of assorted widths (up to 800 and the
// 2101 of DMV's widest column, every width mod 8 among them), some with
// planted NaN, −Inf, +Inf or signed-zero entries and one far below the rest.
func lossRows(rng *rand.Rand) [][]float32 {
	var rows [][]float32
	widths := []int{1, 2, 3, 5, 7, 8, 9, 10, 16, 17, 31, 63, 64, 65, 100, 225, 799, 800, 2101}
	for _, n := range widths {
		for variant := 0; variant < 8; variant++ {
			r := make([]float32, n)
			for i := range r {
				r[i] = float32(rng.NormFloat64() * 3)
			}
			at := rng.Intn(n)
			switch variant {
			case 1:
				r[at] = float32(math.NaN())
			case 2:
				r[0] = float32(math.NaN())
			case 3:
				r[at] = float32(math.Inf(-1))
			case 4:
				r[at] = float32(math.Inf(1))
			case 5:
				r[at] = float32(math.Copysign(0, -1))
			case 6:
				r[at] = -900 // outside the exp kernels' range: math.Exp takes the row
			case 7:
				for i := range r {
					r[i] = float32(math.Inf(-1))
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func sameBits64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
func sameBits32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestLossPassesMatchScalarReference checks Softmax, SoftmaxCE (separate and
// aliased gradient), SoftmaxCERows and LogProb against the scalar references
// bit for bit, NaN payloads included, with the kernels on and off.
func TestLossPassesMatchScalarReference(t *testing.T) {
	for _, accel := range []bool{true, false} {
		prev := tensor.SetAccel(accel)
		rng := rand.New(rand.NewSource(17))
		for ri, row := range lossRows(rng) {
			n := len(row)
			exps := make([]float64, n)
			want, got := make([]float64, n), make([]float64, n)
			wl, gl := refSoftmax(row, want), Softmax(row, got)
			if !sameBits64(wl, gl) {
				t.Fatalf("accel=%v row %d (n=%d): Softmax returned %v, reference %v", accel, ri, n, gl, wl)
			}
			for i := range want {
				if !sameBits64(want[i], got[i]) {
					t.Fatalf("accel=%v row %d (n=%d): Softmax[%d] = %v, reference %v", accel, ri, n, i, got[i], want[i])
				}
			}
			target := rng.Intn(n)
			wg, gg := make([]float32, n), make([]float32, n)
			wl, gl = refSoftmaxCE(row, target, wg), SoftmaxCE(row, target, gg, exps)
			alias := append([]float32(nil), row...)
			al := SoftmaxCE(alias, target, alias, exps)
			if !sameBits64(wl, gl) || !sameBits64(wl, al) {
				t.Fatalf("accel=%v row %d (n=%d): SoftmaxCE loss %v (aliased %v), reference %v", accel, ri, n, gl, al, wl)
			}
			for i := range wg {
				if !sameBits32(wg[i], gg[i]) || !sameBits32(wg[i], alias[i]) {
					t.Fatalf("accel=%v row %d (n=%d): dLogits[%d] = %v (aliased %v), reference %v", accel, ri, n, i, gg[i], alias[i], wg[i])
				}
			}
			if wl, gl := refLogProb(row, target), LogProb(row, target, exps); !sameBits64(wl, gl) {
				t.Fatalf("accel=%v row %d (n=%d): LogProb %v, reference %v", accel, ri, n, gl, wl)
			}
		}
		// SoftmaxCERows over an 800-wide batch, in place.
		logits := tensor.New(37, 800)
		logits.Randn(rng, 4)
		targets := make([]int32, 37)
		wantGrad := tensor.New(37, 800)
		wantLoss := make([]float64, 37)
		for r := range targets {
			targets[r] = int32(rng.Intn(800))
			wantLoss[r] = refSoftmaxCE(logits.Row(r), int(targets[r]), wantGrad.Row(r))
		}
		rowLoss := make([]float64, 37)
		SoftmaxCERows(logits, targets, logits, rowLoss)
		for r := range rowLoss {
			if !sameBits64(rowLoss[r], wantLoss[r]) {
				t.Fatalf("accel=%v: SoftmaxCERows row %d loss %v, reference %v", accel, r, rowLoss[r], wantLoss[r])
			}
		}
		for i, v := range logits.Data {
			if !sameBits32(v, wantGrad.Data[i]) {
				t.Fatalf("accel=%v: SoftmaxCERows gradient %d = %v, reference %v", accel, i, v, wantGrad.Data[i])
			}
		}
		tensor.SetAccel(prev)
	}
}

// TestLossScratchTooShortPanics pins the scratch contract.
func TestLossScratchTooShortPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"SoftmaxCE": func() { SoftmaxCE([]float32{1, 2, 3}, 0, make([]float32, 3), make([]float64, 2)) },
		"LogProb":   func() { LogProb([]float32{1, 2, 3}, 0, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short scratch did not panic", name)
				}
			}()
			f()
		}()
	}
}
