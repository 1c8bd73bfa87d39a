// Package colnet implements the paper's architecture A (§3.2): each column
// gets its own compact neural net whose input is the aggregated encoding of
// the previous columns' values and whose output is the conditional
// distribution over its own domain. Aggregation ⊕ is vector concatenation
// (the paper's first suggestion). Autoregressiveness holds by construction —
// column i's net is physically wired only to encoders of columns < i —
// rather than by masking as in MADE.
//
// The package reuses the same encoding/decoding strategies as MADE (§4.2):
// one-hot for small domains, learned embeddings with tied-weight decoding
// ("embedding reuse") for large ones, so the two architectures are directly
// comparable at matched parameter budgets (the paper's §4.3 comparison).
package colnet

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config sizes the per-column networks.
type Config struct {
	// Hidden is the width of each column's net (default 64).
	Hidden int
	// Layers is the number of hidden layers per column net (default 2).
	Layers int
	// EmbedThreshold and EmbedDim mirror made.Config (defaults 64, 64).
	EmbedThreshold int
	EmbedDim       int
	Seed           int64
}

// DefaultConfig returns a compact per-column architecture.
func DefaultConfig() Config {
	return Config{Hidden: 64, Layers: 2, EmbedThreshold: 64, EmbedDim: 64}
}

type colCodec struct {
	domain   int
	embedded bool
	off      int // offset in the concatenated prefix encoding
	width    int
	emb      *nn.Embedding
}

// colNet is one column's tower: an MLP over the prefix encoding plus a head.
type colNet struct {
	trunk *nn.Sequential
	head  *nn.Linear // to |Ai| logits, or to EmbedDim under reuse
	reuse bool       // decode via the column's own embedding matrix
	inW   int        // prefix width (≥ 1)
}

// Model is the architecture-A autoregressive density model. It satisfies
// core.Model and core.Trainable.
type Model struct {
	cfg     Config
	domains []int
	codecs  []colCodec
	nets    []colNet
	params  []*nn.Param

	// scratch
	x      *tensor.Matrix // full concatenated encoding of a batch
	logits *tensor.Matrix
}

// New builds the model for the given per-column domain sizes.
func New(domains []int, cfg Config) *Model {
	if len(domains) == 0 {
		panic("colnet: no columns")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	if cfg.EmbedThreshold <= 0 {
		cfg.EmbedThreshold = 64
	}
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, domains: append([]int(nil), domains...)}

	total := 0
	m.codecs = make([]colCodec, len(domains))
	for i, d := range domains {
		c := &m.codecs[i]
		c.domain = d
		c.embedded = d >= cfg.EmbedThreshold
		c.off = total
		if c.embedded {
			c.width = cfg.EmbedDim
			c.emb = nn.NewEmbedding(fmt.Sprintf("emb[%d]", i), d, cfg.EmbedDim, rng)
			m.params = append(m.params, c.emb.W)
		} else {
			c.width = d
		}
		total += c.width
	}

	m.nets = make([]colNet, len(domains))
	for i := range domains {
		inW := m.codecs[i].off // prefix width
		if inW == 0 {
			inW = 1 // constant zero input for the first column
		}
		var layers []nn.Layer
		prev := inW
		for l := 0; l < cfg.Layers; l++ {
			layers = append(layers,
				nn.NewLinear(fmt.Sprintf("col%d.h%d", i, l), prev, cfg.Hidden, rng),
				&nn.ReLU{})
			prev = cfg.Hidden
		}
		net := colNet{trunk: &nn.Sequential{Layers: layers}, inW: inW}
		c := &m.codecs[i]
		if c.embedded {
			net.reuse = true
			net.head = nn.NewLinear(fmt.Sprintf("col%d.head", i), prev, cfg.EmbedDim, rng)
		} else {
			net.head = nn.NewLinear(fmt.Sprintf("col%d.head", i), prev, c.domain, rng)
		}
		m.nets[i] = net
		m.params = append(m.params, net.trunk.Params()...)
		m.params = append(m.params, net.head.Params()...)
	}
	return m
}

// NumCols implements core.Model.
func (m *Model) NumCols() int { return len(m.domains) }

// DomainSizes implements core.Model.
func (m *Model) DomainSizes() []int { return append([]int(nil), m.domains...) }

// Params returns every trainable parameter once.
func (m *Model) Params() []*nn.Param { return m.params }

// SizeBytes reports the uncompressed parameter footprint.
func (m *Model) SizeBytes() int64 {
	var b int64
	for _, p := range m.params {
		b += p.SizeBytes()
	}
	return b
}

// NumParams counts scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.NumParams()
	}
	return n
}

// encodePrefix writes the concatenated encodings of columns [0, limit) for n
// tuples into m.x (allocating as needed) and returns it.
func (m *Model) encodePrefix(codes []int32, n, limit int) *tensor.Matrix {
	total := 0
	for i := range m.codecs {
		total += m.codecs[i].width
	}
	if m.x == nil || m.x.Rows != n || m.x.Cols != total {
		m.x = tensor.New(n, total)
	}
	m.x.Zero()
	nc := len(m.domains)
	for i := 0; i < limit; i++ {
		c := &m.codecs[i]
		if c.embedded {
			for r := 0; r < n; r++ {
				c.emb.Lookup(codes[r*nc+i], m.x.Row(r)[c.off:c.off+c.width])
			}
		} else {
			for r := 0; r < n; r++ {
				m.x.Row(r)[c.off+int(codes[r*nc+i])] = 1
			}
		}
	}
	return m.x
}

// prefixView returns the n×inW input matrix for column col, viewing the
// shared encoding buffer. The first column gets a dedicated zero matrix.
func (m *Model) prefixView(x *tensor.Matrix, n, col int) *tensor.Matrix {
	w := m.codecs[col].off
	if w == 0 {
		return tensor.New(n, 1)
	}
	// Copy the prefix slice into a contiguous matrix (rows of x are wider).
	in := tensor.New(n, w)
	for r := 0; r < n; r++ {
		copy(in.Row(r), x.Row(r)[:w])
	}
	return in
}

// logitsOf runs column col's tower over the batch and materializes logits
// (through the tied embedding when reuse is on). Returns an n×domain matrix.
func (m *Model) logitsOf(x *tensor.Matrix, n, col int) *tensor.Matrix {
	net := &m.nets[col]
	h := net.trunk.Forward(m.prefixView(x, n, col))
	out := net.head.Forward(h)
	if !net.reuse {
		return out
	}
	c := &m.codecs[col]
	lg := tensor.New(n, c.domain)
	tensor.MatMulTransB(lg, out, c.emb.W.Val, false)
	return lg
}

// CondBatch implements core.Model: only column col's tower runs, which makes
// architecture A's per-column inference cheaper than MADE's full-net pass.
func (m *Model) CondBatch(codes []int32, n int, col int, out [][]float64) {
	x := m.encodePrefix(codes, n, col)
	lg := m.logitsOf(x, n, col)
	for r := 0; r < n; r++ {
		nn.Softmax(lg.Row(r), out[r][:m.domains[col]])
	}
}

// LogProbBatch implements core.Model via the chain rule over the towers.
func (m *Model) LogProbBatch(codes []int32, n int, dst []float64) {
	for r := range dst[:n] {
		dst[r] = 0
	}
	nc := len(m.domains)
	x := m.encodePrefix(codes, n, nc)
	for col := 0; col < nc; col++ {
		lg := m.logitsOf(x, n, col)
		scratch := make([]float64, lg.Cols)
		for r := 0; r < n; r++ {
			dst[r] += nn.LogProb(lg.Row(r), int(codes[r*nc+col]), scratch)
		}
	}
}

// TrainStep implements core.Trainable: one maximum-likelihood step over n
// full tuples; returns mean NLL in nats.
func (m *Model) TrainStep(codes []int32, n int, opt *nn.Adam) float64 {
	if n == 0 {
		return 0
	}
	for _, p := range m.params {
		p.ZeroGrad()
	}
	nc := len(m.domains)
	x := m.encodePrefix(codes, n, nc)
	// Input gradient accumulator over the shared encoding.
	dx := tensor.New(n, x.Cols)
	var totalNLL float64
	for col := 0; col < nc; col++ {
		net := &m.nets[col]
		c := &m.codecs[col]
		in := m.prefixView(x, n, col)
		h := net.trunk.Forward(in)
		headOut := net.head.Forward(h)
		var dHead *tensor.Matrix
		scratch := make([]float64, c.domain)
		if net.reuse {
			// logits = headOut·Eᵀ
			lg := tensor.New(n, c.domain)
			tensor.MatMulTransB(lg, headOut, c.emb.W.Val, false)
			dLg := tensor.New(n, c.domain)
			for r := 0; r < n; r++ {
				totalNLL += nn.SoftmaxCE(lg.Row(r), int(codes[r*nc+col]), dLg.Row(r), scratch)
			}
			dHead = tensor.New(n, headOut.Cols)
			tensor.MatMul(dHead, dLg, c.emb.W.Val, false)         // dHead = dLg·E
			tensor.MatMulTransA(c.emb.W.Grad, dLg, headOut, true) // dE += dLgᵀ·headOut
		} else {
			dHead = tensor.New(n, c.domain)
			for r := 0; r < n; r++ {
				totalNLL += nn.SoftmaxCE(headOut.Row(r), int(codes[r*nc+col]), dHead.Row(r), scratch)
			}
		}
		dH := net.head.Backward(dHead)
		dIn := net.trunk.Backward(dH)
		if c.off > 0 {
			for r := 0; r < n; r++ {
				tensor.Axpy(1, dIn.Row(r), dx.Row(r)[:c.off])
			}
		}
	}
	// Scatter encoding gradients into input embeddings.
	for i := range m.codecs {
		c := &m.codecs[i]
		if !c.embedded {
			continue
		}
		for r := 0; r < n; r++ {
			id := int(codes[r*nc+i])
			tensor.Axpy(1, dx.Row(r)[c.off:c.off+c.width], c.emb.W.Grad.Row(id))
		}
	}
	inv := 1 / float32(n)
	for _, p := range m.params {
		p.Grad.Scale(inv)
	}
	if opt != nil {
		opt.Step(m.params)
	}
	return totalNLL / float64(n)
}
