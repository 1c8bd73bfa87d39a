// Package transformer implements the third autoregressive architecture the
// paper names (§3.1): a causal self-attention Transformer over the column
// sequence. Each column is one token; token i is the embedding of the
// previous column's value (with a learned BOS vector at position 0) plus a
// learned positional embedding, and causal masking guarantees the output at
// position i sees only columns < i — the same autoregressive contract as
// MADE, enforced by attention masking instead of weight masking.
//
// Blocks are pre-LayerNorm: X += Attn(LN(X)); X += FFN(LN(X)), with a final
// LayerNorm before decoding. Decoding ties each position's output to that
// column's input embedding matrix (§4.2 embedding reuse generalized to every
// column). The whole forward/backward stack — LayerNorm, single-head causal
// attention, GELU-free ReLU FFN — is hand-derived, like the rest of this
// module's neural substrate.
package transformer

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config sizes the model.
type Config struct {
	DModel int // token width (default 32)
	Layers int // transformer blocks (default 2)
	FFN    int // feed-forward inner width (default 4×DModel)
	Seed   int64
}

// DefaultConfig returns a compact architecture suitable for tables with a
// dozen columns.
func DefaultConfig() Config { return Config{DModel: 32, Layers: 2} }

// block holds one transformer block's parameters and per-batch caches.
type block struct {
	ln1, ln2       *layerNorm
	wq, wk, wv, wo *nn.Param
	w1, b1, w2, b2 *nn.Param

	// caches (per TrainStep/forward call)
	x1, q, k, v, attnOut, o *tensor.Matrix // T-strided batch activations
	scores                  []*tensor.Matrix
	x2, ffnHidden           *tensor.Matrix
}

// Model is the Transformer density estimator. It implements core.Model and
// core.Trainable.
type Model struct {
	cfg     Config
	domains []int

	emb    []*nn.Param // per-column embedding |Ai|×d (input and output tied)
	pos    *nn.Param   // n×d positional embeddings
	bos    *nn.Param   // 1×d begin-of-sequence vector
	blocks []*block
	lnF    *layerNorm

	params []*nn.Param
}

// New builds a Transformer over the given per-column domains.
func New(domains []int, cfg Config) *Model {
	if len(domains) == 0 {
		panic("transformer: no columns")
	}
	if cfg.DModel <= 0 {
		cfg.DModel = 32
	}
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	if cfg.FFN <= 0 {
		cfg.FFN = 4 * cfg.DModel
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.DModel
	m := &Model{cfg: cfg, domains: append([]int(nil), domains...)}

	for i, dom := range domains {
		e := nn.NewParam(fmt.Sprintf("emb[%d]", i), dom, d)
		e.InitNormal(rng, 0.05)
		m.emb = append(m.emb, e)
	}
	m.pos = nn.NewParam("pos", len(domains), d)
	m.pos.InitNormal(rng, 0.05)
	m.bos = nn.NewParam("bos", 1, d)
	m.bos.InitNormal(rng, 0.05)

	for l := 0; l < cfg.Layers; l++ {
		b := &block{
			ln1: newLayerNorm(fmt.Sprintf("b%d.ln1", l), d),
			ln2: newLayerNorm(fmt.Sprintf("b%d.ln2", l), d),
			wq:  newProj(fmt.Sprintf("b%d.wq", l), d, d, rng),
			wk:  newProj(fmt.Sprintf("b%d.wk", l), d, d, rng),
			wv:  newProj(fmt.Sprintf("b%d.wv", l), d, d, rng),
			wo:  newProj(fmt.Sprintf("b%d.wo", l), d, d, rng),
			w1:  newProj(fmt.Sprintf("b%d.w1", l), d, cfg.FFN, rng),
			b1:  nn.NewParam(fmt.Sprintf("b%d.b1", l), 1, cfg.FFN),
			w2:  newProj(fmt.Sprintf("b%d.w2", l), cfg.FFN, d, rng),
			b2:  nn.NewParam(fmt.Sprintf("b%d.b2", l), 1, d),
		}
		m.blocks = append(m.blocks, b)
	}
	m.lnF = newLayerNorm("lnF", d)

	m.params = append(m.params, m.emb...)
	m.params = append(m.params, m.pos, m.bos)
	for _, b := range m.blocks {
		m.params = append(m.params,
			b.ln1.g, b.ln1.b, b.wq, b.wk, b.wv, b.wo,
			b.ln2.g, b.ln2.b, b.w1, b.b1, b.w2, b.b2)
	}
	m.params = append(m.params, m.lnF.g, m.lnF.b)
	return m
}

func newProj(name string, in, out int, rng *rand.Rand) *nn.Param {
	p := nn.NewParam(name, in, out)
	p.InitKaiming(rng, in)
	return p
}

// NumCols implements core.Model.
func (m *Model) NumCols() int { return len(m.domains) }

// DomainSizes implements core.Model.
func (m *Model) DomainSizes() []int { return append([]int(nil), m.domains...) }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// SizeBytes reports the parameter footprint.
func (m *Model) SizeBytes() int64 {
	var b int64
	for _, p := range m.params {
		b += p.SizeBytes()
	}
	return b
}

// embed builds the input activations for n sequences of length T: position 0
// is BOS, position i ≥ 1 embeds column i-1's value. Rows of the returned
// matrix are (sequence-major) tokens: row r*T+i.
func (m *Model) embed(codes []int32, n, T int) *tensor.Matrix {
	d := m.cfg.DModel
	x := tensor.New(n*T, d)
	nc := len(m.domains)
	for r := 0; r < n; r++ {
		for i := 0; i < T; i++ {
			row := x.Row(r*T + i)
			if i == 0 {
				copy(row, m.bos.Val.Row(0))
			} else {
				copy(row, m.emb[i-1].Val.Row(int(codes[r*nc+i-1])))
			}
			tensor.Axpy(1, m.pos.Val.Row(i), row)
		}
	}
	return x
}

// forward runs all blocks plus the final norm over an n×T token batch,
// caching intermediates for backward.
func (m *Model) forward(x *tensor.Matrix, n, T int) *tensor.Matrix {
	for _, b := range m.blocks {
		b.x1 = x.Clone()
		h := b.ln1.forward(x)
		attn := m.attention(b, h, n, T)
		x = x.Clone()
		x.Add(attn)
		b.x2 = x.Clone()
		h2 := b.ln2.forward(x)
		ffn := m.ffn(b, h2)
		x = x.Clone()
		x.Add(ffn)
	}
	return m.lnF.forward(x)
}

// attention computes single-head causal self-attention per sequence.
func (m *Model) attention(b *block, h *tensor.Matrix, n, T int) *tensor.Matrix {
	d := m.cfg.DModel
	b.q = tensor.New(n*T, d)
	b.k = tensor.New(n*T, d)
	b.v = tensor.New(n*T, d)
	tensor.MatMul(b.q, h, b.wq.Val, false)
	tensor.MatMul(b.k, h, b.wk.Val, false)
	tensor.MatMul(b.v, h, b.wv.Val, false)
	b.attnOut = tensor.New(n*T, d)
	if cap(b.scores) < n {
		b.scores = make([]*tensor.Matrix, n)
	}
	b.scores = b.scores[:n]
	scale := 1 / float32(math.Sqrt(float64(d)))
	for r := 0; r < n; r++ {
		A := tensor.New(T, T)
		for i := 0; i < T; i++ {
			qi := b.q.Row(r*T + i)
			// Causal: attend to positions j ≤ i only.
			var mx float32 = -math.MaxFloat32
			row := A.Row(i)
			for j := 0; j <= i; j++ {
				s := tensor.Dot(qi, b.k.Row(r*T+j)) * scale
				row[j] = s
				if s > mx {
					mx = s
				}
			}
			var sum float32
			for j := 0; j <= i; j++ {
				e := float32(math.Exp(float64(row[j] - mx)))
				row[j] = e
				sum += e
			}
			inv := 1 / sum
			out := b.attnOut.Row(r*T + i)
			for j := 0; j <= i; j++ {
				row[j] *= inv
				tensor.Axpy(row[j], b.v.Row(r*T+j), out)
			}
		}
		b.scores[r] = A
	}
	b.o = tensor.New(n*T, d)
	tensor.MatMul(b.o, b.attnOut, b.wo.Val, false)
	return b.o
}

// attentionBackward propagates through the attention of block b, returning
// the gradient w.r.t. the LN1 output h.
func (m *Model) attentionBackward(b *block, h, dOut *tensor.Matrix, n, T int) *tensor.Matrix {
	d := m.cfg.DModel
	// dWo and d(attnOut)
	tensor.MatMulTransA(b.wo.Grad, b.attnOut, dOut, true)
	dAttn := tensor.New(n*T, d)
	tensor.MatMulTransB(dAttn, dOut, b.wo.Val, false)

	dQ := tensor.New(n*T, d)
	dK := tensor.New(n*T, d)
	dV := tensor.New(n*T, d)
	scale := 1 / float32(math.Sqrt(float64(d)))
	for r := 0; r < n; r++ {
		A := b.scores[r]
		for i := 0; i < T; i++ {
			dOutRow := dAttn.Row(r*T + i)
			aRow := A.Row(i)
			// dA[i,j] = dOut_i · V_j ; dV_j += A[i,j] * dOut_i
			var dot float32 // Σ_j dA_ij A_ij for softmax backward
			dA := make([]float32, i+1)
			for j := 0; j <= i; j++ {
				dA[j] = tensor.Dot(dOutRow, b.v.Row(r*T+j))
				tensor.Axpy(aRow[j], dOutRow, dV.Row(r*T+j))
				dot += dA[j] * aRow[j]
			}
			// dS = A ⊙ (dA − dot); dQ_i += dS_j K_j scale; dK_j += dS_j Q_i scale
			qi := b.q.Row(r*T + i)
			dqi := dQ.Row(r*T + i)
			for j := 0; j <= i; j++ {
				ds := aRow[j] * (dA[j] - dot) * scale
				if ds == 0 {
					continue
				}
				tensor.Axpy(ds, b.k.Row(r*T+j), dqi)
				tensor.Axpy(ds, qi, dK.Row(r*T+j))
			}
		}
	}
	// Project back: dH = dQ Wqᵀ + dK Wkᵀ + dV Wvᵀ; accumulate weight grads.
	tensor.MatMulTransA(b.wq.Grad, h, dQ, true)
	tensor.MatMulTransA(b.wk.Grad, h, dK, true)
	tensor.MatMulTransA(b.wv.Grad, h, dV, true)
	dH := tensor.New(n*T, d)
	tensor.MatMulTransB(dH, dQ, b.wq.Val, false)
	tensor.MatMulTransB(dH, dK, b.wk.Val, true)
	tensor.MatMulTransB(dH, dV, b.wv.Val, true)
	return dH
}

// ffn computes ReLU(h·W1 + b1)·W2 + b2, caching the hidden activation.
func (m *Model) ffn(b *block, h *tensor.Matrix) *tensor.Matrix {
	hidden := tensor.New(h.Rows, m.cfg.FFN)
	tensor.MatMul(hidden, h, b.w1.Val, false)
	for r := 0; r < hidden.Rows; r++ {
		tensor.Axpy(1, b.b1.Val.Row(0), hidden.Row(r))
	}
	for i, v := range hidden.Data {
		if v < 0 {
			hidden.Data[i] = 0
		}
	}
	b.ffnHidden = hidden
	out := tensor.New(h.Rows, m.cfg.DModel)
	tensor.MatMul(out, hidden, b.w2.Val, false)
	for r := 0; r < out.Rows; r++ {
		tensor.Axpy(1, b.b2.Val.Row(0), out.Row(r))
	}
	return out
}

// ffnBackward returns the gradient w.r.t. the FFN input.
func (m *Model) ffnBackward(b *block, h, dOut *tensor.Matrix) *tensor.Matrix {
	for r := 0; r < dOut.Rows; r++ {
		tensor.Axpy(1, dOut.Row(r), b.b2.Grad.Row(0))
	}
	tensor.MatMulTransA(b.w2.Grad, b.ffnHidden, dOut, true)
	dHidden := tensor.New(dOut.Rows, m.cfg.FFN)
	tensor.MatMulTransB(dHidden, dOut, b.w2.Val, false)
	for i, v := range b.ffnHidden.Data {
		if v <= 0 {
			dHidden.Data[i] = 0
		}
	}
	for r := 0; r < dHidden.Rows; r++ {
		tensor.Axpy(1, dHidden.Row(r), b.b1.Grad.Row(0))
	}
	tensor.MatMulTransA(b.w1.Grad, h, dHidden, true)
	dH := tensor.New(dOut.Rows, m.cfg.DModel)
	tensor.MatMulTransB(dH, dHidden, b.w1.Val, false)
	return dH
}

// backward runs the full reverse pass given dFinal (gradient at the final
// LayerNorm output) and returns the gradient at the token embeddings.
func (m *Model) backward(dFinal *tensor.Matrix, n, T int) *tensor.Matrix {
	dx := m.lnF.backward(dFinal)
	for li := len(m.blocks) - 1; li >= 0; li-- {
		b := m.blocks[li]
		// x3 = x2 + FFN(LN2(x2))
		h2 := b.ln2.out
		dFFNIn := m.ffnBackward(b, h2, dx)
		dLN2 := b.ln2.backward(dFFNIn)
		dx = dx.Clone()
		dx.Add(dLN2)
		// x2 = x1 + Attn(LN1(x1))
		h1 := b.ln1.out
		dAttnIn := m.attentionBackward(b, h1, dx, n, T)
		dLN1 := b.ln1.backward(dAttnIn)
		dx = dx.Clone()
		dx.Add(dLN1)
	}
	return dx
}

// scatterEmbedGrads routes token-level gradients into embeddings, positions,
// and the BOS vector.
func (m *Model) scatterEmbedGrads(dx *tensor.Matrix, codes []int32, n, T int) {
	nc := len(m.domains)
	for r := 0; r < n; r++ {
		for i := 0; i < T; i++ {
			g := dx.Row(r*T + i)
			tensor.Axpy(1, g, m.pos.Grad.Row(i))
			if i == 0 {
				tensor.Axpy(1, g, m.bos.Grad.Row(0))
			} else {
				tensor.Axpy(1, g, m.emb[i-1].Grad.Row(int(codes[r*nc+i-1])))
			}
		}
	}
}

// TrainStep implements core.Trainable.
func (m *Model) TrainStep(codes []int32, n int, opt *nn.Adam) float64 {
	if n == 0 {
		return 0
	}
	for _, p := range m.params {
		p.ZeroGrad()
	}
	T := len(m.domains)
	x := m.embed(codes, n, T)
	final := m.forward(x, n, T)

	// Decode and compute CE per position; accumulate dFinal and embedding
	// (decoder) gradients.
	dFinal := tensor.New(n*T, m.cfg.DModel)
	var totalNLL float64
	nc := T
	maxDom := 0
	for _, d := range m.domains {
		if d > maxDom {
			maxDom = d
		}
	}
	logits := make([]float32, maxDom)
	dLogits := make([]float32, maxDom)
	scratch := make([]float64, maxDom)
	for r := 0; r < n; r++ {
		for i := 0; i < T; i++ {
			e := m.emb[i]
			dom := m.domains[i]
			fRow := final.Row(r*T + i)
			for v := 0; v < dom; v++ {
				logits[v] = tensor.Dot(fRow, e.Val.Row(v))
			}
			target := int(codes[r*nc+i])
			totalNLL += nn.SoftmaxCE(logits[:dom], target, dLogits[:dom], scratch)
			dfRow := dFinal.Row(r*T + i)
			for v := 0; v < dom; v++ {
				g := dLogits[v]
				if g == 0 {
					continue
				}
				tensor.Axpy(g, e.Val.Row(v), dfRow)
				tensor.Axpy(g, fRow, e.Grad.Row(v))
			}
		}
	}
	dx := m.backward(dFinal, n, T)
	m.scatterEmbedGrads(dx, codes, n, T)
	inv := 1 / float32(n)
	for _, p := range m.params {
		p.Grad.Scale(inv)
	}
	if opt != nil {
		opt.Step(m.params)
	}
	return totalNLL / float64(n)
}

// CondBatch implements core.Model: run the prefix sequence of length col+1
// and decode position col.
func (m *Model) CondBatch(codes []int32, n int, col int, out [][]float64) {
	T := col + 1
	x := m.embed(codes, n, T)
	final := m.forward(x, n, T)
	dom := m.domains[col]
	e := m.emb[col]
	logits := make([]float32, dom)
	for r := 0; r < n; r++ {
		fRow := final.Row(r*T + col)
		for v := 0; v < dom; v++ {
			logits[v] = tensor.Dot(fRow, e.Val.Row(v))
		}
		nn.Softmax(logits, out[r][:dom])
	}
}

// LogProbBatch implements core.Model with one full-sequence pass.
func (m *Model) LogProbBatch(codes []int32, n int, dst []float64) {
	T := len(m.domains)
	x := m.embed(codes, n, T)
	final := m.forward(x, n, T)
	maxDom := 0
	for _, d := range m.domains {
		if d > maxDom {
			maxDom = d
		}
	}
	logits := make([]float32, maxDom)
	scratch := make([]float64, maxDom)
	for r := 0; r < n; r++ {
		var lp float64
		for i := 0; i < T; i++ {
			dom := m.domains[i]
			fRow := final.Row(r*T + i)
			for v := 0; v < dom; v++ {
				logits[v] = tensor.Dot(fRow, m.emb[i].Val.Row(v))
			}
			lp += nn.LogProb(logits[:dom], int(codes[r*len(m.domains)+i]), scratch)
		}
		dst[r] = lp
	}
}

// layerNorm is a per-row normalization with learned gain and bias.
type layerNorm struct {
	g, b *nn.Param

	in, norm, out *tensor.Matrix
	invStd        []float32
}

func newLayerNorm(name string, d int) *layerNorm {
	ln := &layerNorm{g: nn.NewParam(name+".g", 1, d), b: nn.NewParam(name+".b", 1, d)}
	ln.g.Val.Fill(1)
	return ln
}

const lnEps = 1e-5

func (ln *layerNorm) forward(x *tensor.Matrix) *tensor.Matrix {
	ln.in = x
	ln.norm = tensor.New(x.Rows, x.Cols)
	ln.out = tensor.New(x.Rows, x.Cols)
	if cap(ln.invStd) < x.Rows {
		ln.invStd = make([]float32, x.Rows)
	}
	ln.invStd = ln.invStd[:x.Rows]
	d := float32(x.Cols)
	g, bb := ln.g.Val.Row(0), ln.b.Val.Row(0)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= d
		var varsum float32
		for _, v := range row {
			dv := v - mean
			varsum += dv * dv
		}
		inv := 1 / float32(math.Sqrt(float64(varsum/d+lnEps)))
		ln.invStd[r] = inv
		nr, or := ln.norm.Row(r), ln.out.Row(r)
		for c, v := range row {
			nr[c] = (v - mean) * inv
			or[c] = nr[c]*g[c] + bb[c]
		}
	}
	return ln.out
}

func (ln *layerNorm) backward(dOut *tensor.Matrix) *tensor.Matrix {
	d := float32(dOut.Cols)
	dIn := tensor.New(dOut.Rows, dOut.Cols)
	g := ln.g.Val.Row(0)
	dg, db := ln.g.Grad.Row(0), ln.b.Grad.Row(0)
	for r := 0; r < dOut.Rows; r++ {
		dor, nr := dOut.Row(r), ln.norm.Row(r)
		var sumDy, sumDyN float32
		for c := range dor {
			dy := dor[c] * g[c]
			sumDy += dy
			sumDyN += dy * nr[c]
			dg[c] += dor[c] * nr[c]
			db[c] += dor[c]
		}
		inv := ln.invStd[r]
		dir := dIn.Row(r)
		for c := range dor {
			dy := dor[c] * g[c]
			dir[c] = (dy - sumDy/d - nr[c]*sumDyN/d) * inv
		}
	}
	return dIn
}
