package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is a differentiable module. Forward consumes a batch (rows are
// examples) and returns the batch of outputs; Backward consumes the gradient
// with respect to the outputs, accumulates parameter gradients, and returns
// the gradient with respect to the inputs. Backward must be called after the
// matching Forward: layers cache activations between the two.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dOut *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// Linear is a fully connected layer: Y = X·W + b, with W stored in×out.
type Linear struct {
	W, B *Param

	x        *tensor.Matrix // cached input
	out      *tensor.Matrix
	dIn      *tensor.Matrix
	inferOut *tensor.Matrix // InferForward scratch, separate from the training cache
	name     string
}

// NewLinear allocates a Linear layer with Kaiming-uniform weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W:    NewParam(name+".W", in, out),
		B:    NewParam(name+".b", 1, out),
		name: name,
	}
	l.W.InitKaiming(rng, in)
	return l
}

// NewMaskedLinear allocates a Linear layer whose weight matrix is constrained
// by a binary in×out mask. The mask is what enforces MADE's autoregressive
// information flow.
func NewMaskedLinear(name string, in, out int, mask *tensor.Matrix, rng *rand.Rand) *Linear {
	if mask.Rows != in || mask.Cols != out {
		panic(fmt.Sprintf("nn: mask shape %d×%d for %d×%d layer", mask.Rows, mask.Cols, in, out))
	}
	l := NewLinear(name, in, out, rng)
	l.W.Mask = mask
	l.W.ApplyMask()
	return l
}

// Forward computes Y = X·W + b.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	if l.out == nil || l.out.Rows != x.Rows {
		l.out = tensor.New(x.Rows, l.W.Val.Cols)
	}
	tensor.MatMul(l.out, x, l.W.Val, false)
	b := l.B.Val.Data
	tensor.ParallelFor(x.Rows, func(s, e int) {
		for r := s; r < e; r++ {
			tensor.Axpy(1, b, l.out.Row(r))
		}
	})
	return l.out
}

// Backward accumulates dW = Xᵀ·dY and db = Σ_rows dY, and returns dX = dY·Wᵀ.
func (l *Linear) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulTransA(l.W.Grad, l.x, dOut, true)
	l.W.MaskGrad() // masked entries carry no gradient
	db := l.B.Grad.Data
	for r := 0; r < dOut.Rows; r++ {
		tensor.Axpy(1, dOut.Row(r), db)
	}
	if l.dIn == nil || l.dIn.Rows != dOut.Rows {
		l.dIn = tensor.New(dOut.Rows, l.W.Val.Rows)
	}
	tensor.MatMulTransB(l.dIn, dOut, l.W.Val, false)
	return l.dIn
}

// Params returns the layer's weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// InferForward is the inference-only forward pass: Y = X·W + b with an
// optional fused ReLU, computed by the packed GEMM in one sweep over the
// output instead of Forward's three (product, bias add, activation). It does
// not cache the input, so Backward must not be called after it; training
// keeps using Forward.
func (l *Linear) InferForward(x *tensor.Matrix, relu bool) *tensor.Matrix {
	if l.inferOut == nil || l.inferOut.Rows != x.Rows {
		l.inferOut = tensor.New(x.Rows, l.W.Val.Cols)
	}
	tensor.LinearReLU(l.inferOut, x, l.W.Val, l.B.Val.Data, relu)
	return l.inferOut
}

// ShareWeights returns a Linear sharing l's parameters (weights, bias, mask)
// with fresh activation scratch, so replicas can run forward passes
// concurrently. Gradients still accumulate into the shared Param structs:
// replicas are for inference, not concurrent training.
func (l *Linear) ShareWeights() *Linear {
	return &Linear{W: l.W, B: l.B, name: l.name}
}

// ForkGrad returns a Linear sharing l's weight/bias values and mask but
// owning private gradients and fresh activation scratch, so data-parallel
// shard replicas can run Forward+Backward concurrently while the trainer
// reduces their gradients deterministically.
func (l *Linear) ForkGrad() *Linear {
	return &Linear{W: l.W.ForkGrad(), B: l.B.ForkGrad(), name: l.name}
}

// ReLU is the rectified-linear activation.
type ReLU struct {
	out *tensor.Matrix
}

// Forward computes max(x, 0) element-wise.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	if r.out == nil || r.out.Rows != x.Rows || r.out.Cols != x.Cols {
		r.out = tensor.New(x.Rows, x.Cols)
	}
	tensor.PositivePart(r.out.Data, x.Data)
	return r.out
}

// Backward zeroes gradients where the forward input was non-positive. It
// mutates and returns dOut (safe: the upstream layer is done with it).
func (r *ReLU) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	for i, v := range r.out.Data {
		if v <= 0 {
			dOut.Data[i] = 0
		}
	}
	return dOut
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	Layers []Layer
}

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dOut = s.Layers[i].Backward(dOut)
	}
	return dOut
}

// ShareWeights returns a Sequential whose layers share parameters with s but
// own fresh activation scratch — the building block for weight-sharing model
// replicas served concurrently. Only Linear and ReLU layers (the trunk
// vocabulary) are supported.
func (s *Sequential) ShareWeights() *Sequential {
	out := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		switch l := l.(type) {
		case *Linear:
			out[i] = l.ShareWeights()
		case *ReLU:
			out[i] = &ReLU{}
		default:
			panic(fmt.Sprintf("nn: ShareWeights does not support %T", l))
		}
	}
	return &Sequential{Layers: out}
}

// ForkGrad returns a Sequential whose layers share parameter values with s
// but own private gradients and activation scratch — the training counterpart
// of ShareWeights, for data-parallel gradient sharding.
func (s *Sequential) ForkGrad() *Sequential {
	out := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		switch l := l.(type) {
		case *Linear:
			out[i] = l.ForkGrad()
		case *ReLU:
			out[i] = &ReLU{}
		default:
			panic(fmt.Sprintf("nn: ForkGrad does not support %T", l))
		}
	}
	return &Sequential{Layers: out}
}

// Params concatenates the parameters of every layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Embedding is a learnable lookup table of Num rows × Dim columns (§4.2,
// "embedding encoding"). Rows are gathered by integer id; gradients scatter
// back into the same rows.
type Embedding struct {
	W   *Param
	ids []int32 // cached ids from the last ForwardRows
}

// NewEmbedding allocates an embedding table initialised to N(0, 1/sqrt(dim)).
func NewEmbedding(name string, num, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{W: NewParam(name, num, dim)}
	e.W.InitNormal(rng, 1.0/float64(dim))
	return e
}

// Dim returns the embedding width.
func (e *Embedding) Dim() int { return e.W.Val.Cols }

// Lookup copies the embedding row for id into dst.
func (e *Embedding) Lookup(id int32, dst []float32) {
	copy(dst, e.W.Val.Row(int(id)))
}

// ForwardRows gathers rows for each id into consecutive rows of out starting
// at column colOff. It records the ids so BackwardRows can scatter gradients.
func (e *Embedding) ForwardRows(ids []int32, out *tensor.Matrix, colOff int) {
	dim := e.Dim()
	for r, id := range ids {
		copy(out.Row(r)[colOff:colOff+dim], e.W.Val.Row(int(id)))
	}
	e.ids = append(e.ids[:0], ids...)
}

// BackwardRows scatters the gradient slice [colOff, colOff+dim) of each row of
// dOut back into the embedding gradient rows recorded by ForwardRows.
func (e *Embedding) BackwardRows(dOut *tensor.Matrix, colOff int) {
	dim := e.Dim()
	for r, id := range e.ids {
		tensor.Axpy(1, dOut.Row(r)[colOff:colOff+dim], e.W.Grad.Row(int(id)))
	}
}

// ForkGrad returns an Embedding sharing e's table values but owning a private
// gradient, for data-parallel shard replicas.
func (e *Embedding) ForkGrad() *Embedding {
	return &Embedding{W: e.W.ForkGrad()}
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }
