package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// scalarLoss runs a forward pass through net and reduces the output with a
// fixed quadratic so gradient checks have a scalar objective:
// L = 0.5 * Σ y_ij².
func scalarLoss(net Layer, x *tensor.Matrix) float64 {
	y := net.Forward(x)
	var s float64
	for _, v := range y.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

// backwardScalar backpropagates dL/dY = Y for the quadratic objective.
func backwardScalar(net Layer, x *tensor.Matrix) *tensor.Matrix {
	y := net.Forward(x)
	dOut := y.Clone()
	return net.Backward(dOut)
}

func zeroGrads(net Layer) {
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
}

// checkParamGrads verifies analytic parameter gradients against central
// finite differences.
func checkParamGrads(t *testing.T, net Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	zeroGrads(net)
	backwardScalar(net, x)
	const eps = 1e-2
	for _, p := range net.Params() {
		for i := range p.Val.Data {
			if p.Mask != nil && p.Mask.Data[i] == 0 {
				if p.Grad.Data[i] != 0 {
					t.Fatalf("%s[%d]: masked entry has nonzero grad %v", p.Name, i, p.Grad.Data[i])
				}
				continue
			}
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + eps
			lp := scalarLoss(net, x)
			p.Val.Data[i] = orig - eps
			lm := scalarLoss(net, x)
			p.Val.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data[i])
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// checkInputGrads verifies analytic input gradients against central finite
// differences.
func checkInputGrads(t *testing.T, net Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	zeroGrads(net)
	dIn := backwardScalar(net, x)
	const eps = 1e-2
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := scalarLoss(net, x)
		x.Data[i] = orig - eps
		lm := scalarLoss(net, x)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dIn.Data[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("dX[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("lin", 4, 3, rng)
	x := tensor.New(5, 4)
	x.Randn(rng, 1)
	checkParamGrads(t, l, x, 1e-2)
	checkInputGrads(t, l, x, 1e-2)
}

func TestMaskedLinearGradCheckAndMaskInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mask := tensor.New(4, 3)
	for i := range mask.Data {
		if rng.Intn(2) == 0 {
			mask.Data[i] = 1
		}
	}
	l := NewMaskedLinear("masked", 4, 3, mask, rng)
	for i, m := range mask.Data {
		if m == 0 && l.W.Val.Data[i] != 0 {
			t.Fatal("masked weight not zero after init")
		}
	}
	x := tensor.New(3, 4)
	x.Randn(rng, 1)
	checkParamGrads(t, l, x, 1e-2)
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := &Sequential{Layers: []Layer{
		NewLinear("l1", 5, 7, rng),
		&ReLU{},
		NewLinear("l2", 7, 4, rng),
		&ReLU{},
		NewLinear("l3", 4, 2, rng),
	}}
	x := tensor.New(4, 5)
	x.Randn(rng, 1)
	// ReLU kinks make finite differences noisy; shift inputs away from zero.
	for i := range x.Data {
		if math.Abs(float64(x.Data[i])) < 0.1 {
			x.Data[i] += 0.2
		}
	}
	checkParamGrads(t, net, x, 3e-2)
	checkInputGrads(t, net, x, 3e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	y := r.Forward(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU forward: got %v", y.Data)
		}
	}
	d := tensor.FromSlice(1, 4, []float32{1, 1, 1, 1})
	dIn := r.Backward(d)
	wantD := []float32{0, 0, 1, 0}
	for i := range wantD {
		if dIn.Data[i] != wantD[i] {
			t.Fatalf("ReLU backward: got %v", dIn.Data)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c int16) bool {
		logits := []float32{float32(a) / 100, float32(b) / 100, float32(c) / 100}
		out := make([]float64, 3)
		Softmax(logits, out)
		var s float64
		for _, p := range out {
			if p < 0 || p > 1 {
				return false
			}
			s += p
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	out := make([]float64, 2)
	Softmax([]float32{1e4, 1e4 - 1}, out)
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("softmax overflow: %v", out)
	}
	want := 1 / (1 + math.Exp(-1))
	if math.Abs(out[0]-want) > 1e-6 {
		t.Fatalf("got %v want %v", out[0], want)
	}
}

func TestSoftmaxCEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := make([]float32, 6)
	for i := range logits {
		logits[i] = float32(rng.NormFloat64())
	}
	target := 2
	grad := make([]float32, 6)
	exps := make([]float64, 6)
	loss := SoftmaxCE(logits, target, grad, exps)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	const eps = 1e-3
	for i := range logits {
		tmp := make([]float32, 6)
		orig := logits[i]
		logits[i] = orig + eps
		lp := SoftmaxCE(logits, target, tmp, exps)
		logits[i] = orig - eps
		lm := SoftmaxCE(logits, target, tmp, exps)
		logits[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(grad[i])) > 1e-3 {
			t.Fatalf("dLogits[%d]: analytic %v numeric %v", i, grad[i], numeric)
		}
	}
}

func TestLogProbMatchesSoftmax(t *testing.T) {
	logits := []float32{0.3, -1.2, 2.5, 0.0}
	probs := make([]float64, 4)
	Softmax(logits, probs)
	for i := range logits {
		if math.Abs(LogProb(logits, i, make([]float64, 4))-math.Log(probs[i])) > 1e-9 {
			t.Fatalf("LogProb(%d) mismatch", i)
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedding("emb", 10, 4, rng)
	out := tensor.New(3, 6) // embeddings land at colOff=2
	ids := []int32{7, 0, 7}
	e.ForwardRows(ids, out, 2)
	for r, id := range ids {
		for j := 0; j < 4; j++ {
			if out.At(r, 2+j) != e.W.Val.At(int(id), j) {
				t.Fatalf("row %d not gathered", r)
			}
		}
	}
	dOut := tensor.New(3, 6)
	dOut.Fill(1)
	e.BackwardRows(dOut, 2)
	// id 7 appears twice → grad 2 per dim; id 0 once → 1; others 0.
	for j := 0; j < 4; j++ {
		if e.W.Grad.At(7, j) != 2 || e.W.Grad.At(0, j) != 1 || e.W.Grad.At(3, j) != 0 {
			t.Fatalf("embedding grads wrong: %v %v %v",
				e.W.Grad.At(7, j), e.W.Grad.At(0, j), e.W.Grad.At(3, j))
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise f(w) = Σ (w_i - i)²; Adam should drive w toward (0,1,2,3).
	p := NewParam("w", 1, 4)
	opt := NewAdam(0.1)
	for step := 0; step < 2000; step++ {
		p.ZeroGrad()
		for i := range p.Val.Data {
			p.Grad.Data[i] = 2 * (p.Val.Data[i] - float32(i))
		}
		opt.Step([]*Param{p})
	}
	for i, v := range p.Val.Data {
		if math.Abs(float64(v)-float64(i)) > 1e-2 {
			t.Fatalf("w[%d] = %v, want %d", i, v, i)
		}
	}
}

func TestAdamRespectsMask(t *testing.T) {
	p := NewParam("w", 2, 2)
	p.Mask = tensor.FromSlice(2, 2, []float32{1, 0, 0, 1})
	p.InitNormal(rand.New(rand.NewSource(6)), 1)
	opt := NewAdam(0.1)
	for step := 0; step < 10; step++ {
		p.Grad.Fill(1)
		opt.Step([]*Param{p})
	}
	if p.Val.At(0, 1) != 0 || p.Val.At(1, 0) != 0 {
		t.Fatalf("masked entries drifted: %v", p.Val.Data)
	}
	if p.Val.At(0, 0) == 0 {
		t.Fatal("unmasked entry did not move")
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Val.Data[0], p.Val.Data[1] = 1, 2
	p.Grad.Data[0], p.Grad.Data[1] = 10, 20
	(&SGD{LR: 0.1}).Step([]*Param{p})
	if p.Val.Data[0] != 0 || p.Val.Data[1] != 0 {
		t.Fatalf("SGD step wrong: %v", p.Val.Data)
	}
}

func TestNumParamsCountsUnmaskedOnly(t *testing.T) {
	p := NewParam("w", 2, 3)
	if p.NumParams() != 6 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	p.Mask = tensor.FromSlice(2, 3, []float32{1, 1, 0, 0, 0, 1})
	if p.NumParams() != 3 {
		t.Fatalf("masked NumParams = %d", p.NumParams())
	}
	if p.SizeBytes() != 24 {
		t.Fatalf("SizeBytes = %d", p.SizeBytes())
	}
}

func TestTrainTinyClassifier(t *testing.T) {
	// End-to-end: learn XOR with a 2-layer MLP and softmax CE.
	rng := rand.New(rand.NewSource(7))
	net := &Sequential{Layers: []Layer{
		NewLinear("l1", 2, 16, rng),
		&ReLU{},
		NewLinear("l2", 16, 2, rng),
	}}
	inputs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []int{0, 1, 1, 0}
	opt := NewAdam(0.05)
	x := tensor.New(4, 2)
	for r, in := range inputs {
		copy(x.Row(r), in)
	}
	var loss float64
	for epoch := 0; epoch < 500; epoch++ {
		zeroGrads(net)
		y := net.Forward(x)
		d := tensor.New(4, 2)
		loss = 0
		for r, tgt := range targets {
			loss += SoftmaxCE(y.Row(r), tgt, d.Row(r), make([]float64, 2))
		}
		net.Backward(d)
		opt.Step(net.Params())
	}
	if loss/4 > 0.05 {
		t.Fatalf("XOR did not converge: avg loss %v", loss/4)
	}
	y := net.Forward(x)
	for r, tgt := range targets {
		row := y.Row(r)
		pred := 0
		if row[1] > row[0] {
			pred = 1
		}
		if pred != tgt {
			t.Fatalf("example %d misclassified", r)
		}
	}
}

func TestSoftmaxSingleElement(t *testing.T) {
	out := make([]float64, 1)
	Softmax([]float32{42}, out)
	if out[0] != 1 {
		t.Fatalf("single-element softmax = %v", out[0])
	}
	grad := make([]float32, 1)
	if loss := SoftmaxCE([]float32{42}, 0, grad, make([]float64, 1)); loss != 0 || grad[0] != 0 {
		t.Fatalf("single-class CE: loss=%v grad=%v", loss, grad[0])
	}
}

func TestSoftmaxCEPanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCE([]float32{1, 2}, 5, make([]float32, 2), make([]float64, 2))
}

func TestSoftmaxLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Softmax([]float32{1, 2}, make([]float64, 3))
}

func TestSoftmaxCERowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(17, 23)
	logits.Randn(rng, 1)
	targets := make([]int32, 17)
	for i := range targets {
		targets[i] = int32(rng.Intn(23))
	}
	wantGrad := tensor.New(17, 23)
	wantLoss := make([]float64, 17)
	exps := make([]float64, 23)
	for r := 0; r < 17; r++ {
		wantLoss[r] = SoftmaxCE(logits.Row(r), int(targets[r]), wantGrad.Row(r), exps)
	}
	// Batched, in place: gradients overwrite the logits.
	rowLoss := make([]float64, 17)
	SoftmaxCERows(logits, targets, logits, rowLoss)
	for r := 0; r < 17; r++ {
		if rowLoss[r] != wantLoss[r] {
			t.Fatalf("row %d loss %v want %v", r, rowLoss[r], wantLoss[r])
		}
		for c := 0; c < 23; c++ {
			if logits.At(r, c) != wantGrad.At(r, c) {
				t.Fatalf("grad (%d,%d) mismatch", r, c)
			}
		}
	}
}
