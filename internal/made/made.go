// Package made implements the paper's default autoregressive architecture
// (§4.3, architecture B): a masked autoencoder for distribution estimation
// (MADE; Germain et al., 2015) specialized for relational data with the
// paper's encoding and decoding strategies (§4.2):
//
//   - small-domain columns are one-hot encoded; large-domain columns use
//     learnable embeddings (threshold and width both default to 64);
//   - small-domain columns decode through a direct output block; large-domain
//     columns decode through "embedding reuse": a narrow head of width h whose
//     output is multiplied by the transposed input embedding matrix, saving a
//     |Ai|/h factor of parameters.
//
// Degree-based binary masks on every linear layer enforce the autoregressive
// property: the logits for column i depend only on the encoded values of
// columns < i in the natural table order (the ordering the paper uses).
package made

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config selects the model architecture.
type Config struct {
	// HiddenSizes are the widths of the masked hidden layers, e.g. the
	// paper's DMV model uses [512, 256, 512, 128, 1024].
	HiddenSizes []int

	// EmbedThreshold: columns with DomainSize >= EmbedThreshold use
	// embedding encoding; smaller ones are one-hot (paper default 64).
	EmbedThreshold int

	// EmbedDim is the embedding width h (paper default 64).
	EmbedDim int

	// NoEmbedReuse disables the embedding-reuse decoder, giving every
	// large-domain column a full FC(F, |Ai|) output block instead. Kept for
	// the §4.2 ablation; the paper's default is reuse enabled.
	NoEmbedReuse bool

	// Seed drives weight initialization and degree assignment.
	Seed int64

	// ColRoles, when non-empty, annotates each model column with its role in
	// the trained layout — column-layout metadata persisted with the model so
	// a saved artifact is self-describing. Single-table models leave it
	// empty; the join-schema estimator stamps "base:<table.column>" and
	// "fanout:<edge>:<name>" entries so a loaded model's virtual fanout
	// columns can be re-identified without the training schema. Must be
	// empty or one entry per column; the roles never affect the network.
	ColRoles []string
}

// DefaultConfig mirrors the paper's Conviva-A architecture: a 4×128 masked
// MLP with 64-dimensional embedding reuse.
func DefaultConfig() Config {
	return Config{HiddenSizes: []int{128, 128, 128, 128}, EmbedThreshold: 64, EmbedDim: 64}
}

// colCodec records how one column enters and leaves the network.
type colCodec struct {
	domain   int
	embedded bool
	inOff    int // offset of the column's block in the input vector
	inW      int
	headOff  int // offset of the column's block in the head output
	headW    int
	emb      *nn.Embedding // nil for one-hot columns
	dec      *nn.Param     // decode matrix |Ai|×h; aliases emb.W under reuse
}

// Model is a MADE density estimator over a fixed schema.
type Model struct {
	cfg     Config
	domains []int
	codecs  []colCodec
	inDim   int
	headDim int

	trunk *nn.Sequential // masked hidden stack ending in ReLU
	head  *nn.Linear     // masked projection to the concatenated head blocks

	// hidStart[l][d] is the first unit of hidden layer l whose degree is >= d
	// (== the layer width when none is). Degrees are sorted ascending within
	// each layer, so the units column i can influence form the suffix
	// [hidStart[l][i+1], width) — the delta-forward path recomputes only that
	// window per layer (infer.go).
	hidStart [][]int

	params []*nn.Param

	// scratch, reused across calls; Model is not safe for concurrent use.
	// Use Fork to serve queries from multiple goroutines.
	x, dx *tensor.Matrix
	dHead *tensor.Matrix

	samp  sampState    // delta-forward cache for sequential sampling (infer.go)
	packs packCache    // pre-packed weight windows for the block path (block.go)
	infer inferScratch // inference buffers reused across CondBatch calls
	train trainScratch // batched-loss buffers reused across TrainStep calls
}

// trainScratch holds the batched training path's reusable buffers: the
// gathered head block, the logit/gradient matrix (gradients overwrite logits
// in place), the back-projected block gradient, and per-row targets/losses.
type trainScratch struct {
	block   *tensor.Matrix // n×h slice of the head output for one column
	logits  *tensor.Matrix // n×|Ai| logits, overwritten by dLogits
	dBlock  *tensor.Matrix // n×h dBlock = dLogits·E
	targets []int32
	rowLoss []float64
}

// resizeMat reshapes m to rows×cols reusing its backing storage when the
// capacity allows; contents after the call are unspecified.
func resizeMat(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil {
		return tensor.New(rows, cols)
	}
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float32, need)
	}
	m.Data = m.Data[:need]
	m.Rows, m.Cols = rows, cols
	return m
}

// New builds a MADE model for the given per-column domain sizes.
func New(domains []int, cfg Config) *Model {
	if len(domains) == 0 {
		panic("made: no columns")
	}
	if len(cfg.HiddenSizes) == 0 {
		panic("made: no hidden layers")
	}
	if cfg.EmbedThreshold <= 0 {
		cfg.EmbedThreshold = 64
	}
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = 64
	}
	if len(cfg.ColRoles) != 0 && len(cfg.ColRoles) != len(domains) {
		panic(fmt.Sprintf("made: %d column roles over %d columns", len(cfg.ColRoles), len(domains)))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, domains: append([]int(nil), domains...)}

	// Lay out per-column input and head blocks.
	m.codecs = make([]colCodec, len(domains))
	for i, d := range domains {
		if d <= 0 {
			panic(fmt.Sprintf("made: column %d has domain %d", i, d))
		}
		c := &m.codecs[i]
		c.domain = d
		c.embedded = d >= cfg.EmbedThreshold
		c.inOff = m.inDim
		c.headOff = m.headDim
		if c.embedded {
			c.inW = cfg.EmbedDim
			c.emb = nn.NewEmbedding(fmt.Sprintf("emb[%d]", i), d, cfg.EmbedDim, rng)
			if cfg.NoEmbedReuse {
				c.headW = d
			} else {
				c.headW = cfg.EmbedDim
				c.dec = c.emb.W
			}
		} else {
			c.inW = d
			c.headW = d
		}
		m.inDim += c.inW
		m.headDim += c.headW
	}

	// Degree assignment. Input block for column i has degree i+1; hidden
	// units cycle through degrees 1..n-1 (or a single degree for n == 1,
	// where hidden units can never legally feed any output). Each layer's
	// degrees are then sorted ascending — a pure permutation of units, so the
	// expressible functions are unchanged, but the units affected by any
	// input column become a contiguous suffix, which the delta-forward path
	// exploits (infer.go).
	n := len(domains)
	hiddenDegrees := func(width int) []int {
		ds := make([]int, width)
		span := n - 1
		if span < 1 {
			span = 1
		}
		for j := range ds {
			ds[j] = j%span + 1
		}
		sort.Ints(ds)
		return ds
	}
	inDeg := make([]int, m.inDim)
	for i := range m.codecs {
		c := &m.codecs[i]
		for k := 0; k < c.inW; k++ {
			inDeg[c.inOff+k] = i + 1
		}
	}

	var layers []nn.Layer
	prevDeg := inDeg
	prevW := m.inDim
	for li, hw := range cfg.HiddenSizes {
		deg := hiddenDegrees(hw)
		mask := tensor.New(prevW, hw)
		for a := 0; a < prevW; a++ {
			for b := 0; b < hw; b++ {
				if deg[b] >= prevDeg[a] {
					mask.Set(a, b, 1)
				}
			}
		}
		layers = append(layers,
			nn.NewMaskedLinear(fmt.Sprintf("h%d", li), prevW, hw, mask, rng),
			&nn.ReLU{})
		starts := make([]int, n+2)
		for d := 0; d <= n+1; d++ {
			starts[d] = sort.SearchInts(deg, d)
		}
		m.hidStart = append(m.hidStart, starts)
		prevDeg, prevW = deg, hw
	}
	m.trunk = &nn.Sequential{Layers: layers}

	// Head: output block for column i may see hidden degrees <= i.
	headMask := tensor.New(prevW, m.headDim)
	for a := 0; a < prevW; a++ {
		for i := range m.codecs {
			c := &m.codecs[i]
			if prevDeg[a] <= i {
				for b := 0; b < c.headW; b++ {
					headMask.Set(a, c.headOff+b, 1)
				}
			}
		}
	}
	m.head = nn.NewMaskedLinear("head", prevW, m.headDim, headMask, rng)

	m.params = append(m.params, m.trunk.Params()...)
	m.params = append(m.params, m.head.Params()...)
	seen := map[*nn.Param]bool{}
	for i := range m.codecs {
		c := &m.codecs[i]
		if c.emb != nil && !seen[c.emb.W] {
			m.params = append(m.params, c.emb.W)
			seen[c.emb.W] = true
		}
		if c.dec != nil && !seen[c.dec] {
			m.params = append(m.params, c.dec)
			seen[c.dec] = true
		}
	}
	return m
}

// NumCols returns the number of modeled columns.
func (m *Model) NumCols() int { return len(m.domains) }

// DomainSizes returns a copy of the per-column domain sizes.
func (m *Model) DomainSizes() []int { return append([]int(nil), m.domains...) }

// ColumnRoles returns a copy of the column-layout metadata (empty when the
// model was built without roles).
func (m *Model) ColumnRoles() []string { return append([]string(nil), m.cfg.ColRoles...) }

// Params returns every trainable parameter exactly once.
func (m *Model) Params() []*nn.Param { return m.params }

// NumParams returns the count of effective (unmasked) scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.NumParams()
	}
	return n
}

// SizeBytes reports the uncompressed float32 footprint of all parameters,
// the quantity the paper's storage budgets constrain.
func (m *Model) SizeBytes() int64 {
	var b int64
	for _, p := range m.params {
		b += p.SizeBytes()
	}
	return b
}

// ensureScratch sizes the reusable batch buffers.
func (m *Model) ensureScratch(batch int) {
	if m.x == nil || m.x.Rows != batch {
		m.x = tensor.New(batch, m.inDim)
		m.dx = tensor.New(batch, m.inDim)
		m.dHead = tensor.New(batch, m.headDim)
	}
}

// encode writes the network input for n tuples (row-major codes with stride
// NumCols) into m.x, encoding only columns < limit and zeroing the rest.
// Passing limit = NumCols encodes full tuples. Negative codes mark absent
// (wildcard-skipped) columns: their input block stays zero, matching the
// block walk's treatment of unsampled columns.
func (m *Model) encode(codes []int32, n int, limit int) {
	m.ensureScratch(n)
	m.x.Zero()
	nc := len(m.domains)
	for i := 0; i < limit; i++ {
		c := &m.codecs[i]
		if c.embedded {
			for r := 0; r < n; r++ {
				if code := codes[r*nc+i]; code >= 0 {
					c.emb.Lookup(code, m.x.Row(r)[c.inOff:c.inOff+c.inW])
				}
			}
		} else {
			for r := 0; r < n; r++ {
				if code := codes[r*nc+i]; code >= 0 {
					m.x.Row(r)[c.inOff+int(code)] = 1
				}
			}
		}
	}
}

// forward runs the trunk and head over the encoded batch, caching the hidden
// activations for backward.
func (m *Model) forward() *tensor.Matrix {
	return m.head.Forward(m.trunk.Forward(m.x))
}

// logitsFor extracts the logits of column i from the head output for row r,
// materializing the embedding-reuse product when needed. buf must have
// capacity domain(i); the returned slice aliases either headOut or buf.
func (m *Model) logitsFor(headOut *tensor.Matrix, r, i int, buf []float32) []float32 {
	c := &m.codecs[i]
	block := headOut.Row(r)[c.headOff : c.headOff+c.headW]
	if c.dec == nil {
		return block // direct logits
	}
	// logits = block · Eᵀ  (1×h by h×|Ai|)
	out := buf[:c.domain]
	for v := 0; v < c.domain; v++ {
		out[v] = tensor.Dot(block, c.dec.Val.Row(v))
	}
	return out
}

// TrainStep performs one maximum-likelihood gradient step (Eq. 2) on a batch
// of n full tuples and returns the mean negative log-likelihood in nats.
// opt may be nil to accumulate gradients without stepping.
func (m *Model) TrainStep(codes []int32, n int, opt *nn.Adam) float64 {
	if n == 0 {
		return 0
	}
	totalNLL := m.GradStep(codes, n)
	// Average gradients over the batch.
	inv := 1 / float32(n)
	for _, p := range m.params {
		p.Grad.Scale(inv)
	}
	if opt != nil {
		opt.Step(m.params)
	}
	return totalNLL / float64(n)
}

// GradStep zeroes the model's gradients, then accumulates the UNAVERAGED
// maximum-likelihood gradient of a batch of n full tuples and returns the
// total (summed, not mean) negative log-likelihood in nats. It applies no
// optimizer step and no 1/n scaling — data-parallel sharding calls it on each
// replica's shard and divides by the full batch size once, after the
// fixed-order reduce, so the sharded gradient is the same sum of per-tuple
// terms the sequential path computes.
//
// Losses are batched per column: an embedded column's decode runs as three
// GEMMs (logits = Block·Eᵀ, dBlock = dLogits·E, dE += dLogitsᵀ·Block) plus a
// row-parallel softmax-CE, replacing the per-row scalar loop of
// TrainStepReference. Every kernel partitions output cells disjointly and the
// NLL is summed sequentially column-then-row, so the result is
// bit-deterministic for fixed inputs regardless of worker count.
func (m *Model) GradStep(codes []int32, n int) float64 {
	if n == 0 {
		for _, p := range m.params {
			p.ZeroGrad()
		}
		return 0
	}
	m.samp.active = false // parameters are about to change; drop the delta cache
	m.invalidatePacks()   // ...and every pre-packed weight window
	for _, p := range m.params {
		p.ZeroGrad()
	}
	m.encode(codes, n, len(m.domains))
	headOut := m.forward()

	nc := len(m.domains)
	ts := &m.train
	if cap(ts.targets) < n {
		ts.targets = make([]int32, n)
		ts.rowLoss = make([]float64, n)
	}
	targets := ts.targets[:n]
	rowLoss := ts.rowLoss[:n]

	var totalNLL float64
	for i := range m.codecs {
		c := &m.codecs[i]
		for r := 0; r < n; r++ {
			targets[r] = codes[r*nc+i]
		}
		if c.dec == nil {
			// Direct block: per-row loss and gradient in place, rows in
			// parallel. Every head cell of this block is written exactly once,
			// so dHead needs no prior zeroing.
			tensor.ParallelFor(n, func(s, e int) {
				for r := s; r < e; r++ {
					block := headOut.Row(r)[c.headOff : c.headOff+c.headW]
					dBlock := m.dHead.Row(r)[c.headOff : c.headOff+c.headW]
					rowLoss[r] = nn.SoftmaxCE(block, int(targets[r]), dBlock)
				}
			})
			for r := 0; r < n; r++ {
				totalNLL += rowLoss[r]
			}
			continue
		}
		// Embedding-reuse block, batched: gather the n×h block, decode all n
		// rows with one GEMM, take the softmax-CE row-wise (gradients
		// overwrite the logits), then back-project.
		block := resizeMat(ts.block, n, c.headW)
		ts.block = block
		tensor.ParallelFor(n, func(s, e int) {
			for r := s; r < e; r++ {
				copy(block.Row(r), headOut.Row(r)[c.headOff:c.headOff+c.headW])
			}
		})
		logits := resizeMat(ts.logits, n, c.domain)
		ts.logits = logits
		tensor.MatMulTransB(logits, block, c.dec.Val, false) // logits = Block·Eᵀ
		nn.SoftmaxCERows(logits, targets, logits, rowLoss)   // logits now hold dLogits
		for r := 0; r < n; r++ {
			totalNLL += rowLoss[r]
		}
		dBlock := resizeMat(ts.dBlock, n, c.headW)
		ts.dBlock = dBlock
		tensor.MatMul(dBlock, logits, c.dec.Val, false)      // dBlock = dLogits·E
		tensor.MatMulTransA(c.dec.Grad, logits, block, true) // dE += dLogitsᵀ·Block
		tensor.ParallelFor(n, func(s, e int) {
			for r := s; r < e; r++ {
				copy(m.dHead.Row(r)[c.headOff:c.headOff+c.headW], dBlock.Row(r))
			}
		})
	}

	dHidden := m.head.Backward(m.dHead)
	dx := m.trunk.Backward(dHidden)
	// Scatter input gradients into embeddings (one-hot blocks have no params).
	// Sequential: distinct rows may hit the same embedding row.
	for i := range m.codecs {
		c := &m.codecs[i]
		if !c.embedded {
			continue
		}
		for r := 0; r < n; r++ {
			id := int(codes[r*nc+i])
			tensor.Axpy(1, dx.Row(r)[c.inOff:c.inOff+c.inW], c.emb.W.Grad.Row(id))
		}
	}
	return totalNLL
}

// TrainStepReference is the pre-batching training step: per-row scalar
// softmax-CE and axpy-based embedding-reuse gradients. It computes the same
// gradient as TrainStep up to float summation order and is retained as the
// correctness oracle for the batched kernels and as the measured baseline for
// the training benchmark's speedup claim.
func (m *Model) TrainStepReference(codes []int32, n int, opt *nn.Adam) float64 {
	if n == 0 {
		return 0
	}
	m.samp.active = false // parameters are about to change; drop the delta cache
	m.invalidatePacks()   // ...and every pre-packed weight window
	for _, p := range m.params {
		p.ZeroGrad()
	}
	m.encode(codes, n, len(m.domains))
	headOut := m.forward()
	m.dHead.Zero()

	nc := len(m.domains)
	var totalNLL float64
	maxDom := 0
	for _, d := range m.domains {
		if d > maxDom {
			maxDom = d
		}
	}
	logitBuf := make([]float32, maxDom)
	gradBuf := make([]float32, maxDom)
	for i := range m.codecs {
		c := &m.codecs[i]
		if c.dec == nil {
			// Direct block: loss and gradient in place.
			for r := 0; r < n; r++ {
				target := int(codes[r*nc+i])
				block := headOut.Row(r)[c.headOff : c.headOff+c.headW]
				dBlock := m.dHead.Row(r)[c.headOff : c.headOff+c.headW]
				totalNLL += nn.SoftmaxCE(block, target, dBlock)
			}
			continue
		}
		// Embedding-reuse block: logits = block·Eᵀ, so
		// dBlock = dLogits·E and dE += dLogitsᵀ·block.
		for r := 0; r < n; r++ {
			target := int(codes[r*nc+i])
			logits := m.logitsFor(headOut, r, i, logitBuf)
			dLogits := gradBuf[:c.domain]
			totalNLL += nn.SoftmaxCE(logits, target, dLogits)
			block := headOut.Row(r)[c.headOff : c.headOff+c.headW]
			dBlock := m.dHead.Row(r)[c.headOff : c.headOff+c.headW]
			for v := 0; v < c.domain; v++ {
				g := dLogits[v]
				if g == 0 {
					continue
				}
				tensor.Axpy(g, c.dec.Val.Row(v), dBlock)
				tensor.Axpy(g, block, c.dec.Grad.Row(v))
			}
		}
	}

	dHidden := m.head.Backward(m.dHead)
	dx := m.trunk.Backward(dHidden)
	// Scatter input gradients into embeddings (one-hot blocks have no params).
	for i := range m.codecs {
		c := &m.codecs[i]
		if !c.embedded {
			continue
		}
		for r := 0; r < n; r++ {
			id := int(codes[r*nc+i])
			tensor.Axpy(1, dx.Row(r)[c.inOff:c.inOff+c.inW], c.emb.W.Grad.Row(id))
		}
	}
	// Average gradients over the batch.
	inv := 1 / float32(n)
	for _, p := range m.params {
		p.Grad.Scale(inv)
	}
	if opt != nil {
		opt.Step(m.params)
	}
	return totalNLL / float64(n)
}

// TrainFork returns a replica that shares every parameter VALUE with m but
// owns private gradients, activation caches, and scratch — the training
// counterpart of Fork. Data-parallel sharding runs GradStep on one replica per
// worker; the trainer then reduces replica gradients in a fixed order and
// steps the primary's optimizer. Replica parameters line up index-for-index
// with m.Params(), including the embedding-reuse aliasing of decode matrices
// onto embedding tables.
func (m *Model) TrainFork() *Model {
	f := &Model{
		cfg:      m.cfg,
		domains:  m.domains,
		codecs:   append([]colCodec(nil), m.codecs...),
		inDim:    m.inDim,
		headDim:  m.headDim,
		trunk:    m.trunk.ForkGrad(),
		head:     m.head.ForkGrad(),
		hidStart: m.hidStart,
	}
	for i := range f.codecs {
		c := &f.codecs[i]
		if c.emb != nil {
			c.emb = c.emb.ForkGrad()
			if c.dec != nil {
				c.dec = c.emb.W // embedding reuse: decode IS the (forked) table
			}
		}
	}
	// Rebuild the parameter list in New's exact order so reduction can pair
	// replica and primary parameters by index.
	f.params = append(f.params, f.trunk.Params()...)
	f.params = append(f.params, f.head.Params()...)
	seen := map[*nn.Param]bool{}
	for i := range f.codecs {
		c := &f.codecs[i]
		if c.emb != nil && !seen[c.emb.W] {
			f.params = append(f.params, c.emb.W)
			seen[c.emb.W] = true
		}
		if c.dec != nil && !seen[c.dec] {
			f.params = append(f.params, c.dec)
			seen[c.dec] = true
		}
	}
	return f
}

// ForkTrain implements core.ShardTrainable (returning any keeps this package
// from importing core; the trainer asserts the replica back to its shard
// interface).
func (m *Model) ForkTrain() any { return m.TrainFork() }

// CondBatch computes P̂(X_col | x_<col) for each of the n tuples in codes
// (row-major, stride NumCols), writing one probability vector per tuple into
// out. Only columns < col of each tuple are read. This is the primitive
// progressive sampling consumes (Algorithm 1, line 10-11).
//
// Unlike TrainStep, which needs every column's head block, this computes
// only column col's slice of the head projection — a large saving when the
// concatenated head is wide.
//
// Within an active sampling walk (BeginSampling), col may jump FORWARD past
// columns the walk never sampled: those columns are treated as absent
// (wildcard-skipped), exactly as if their codes were -1 — their input blocks
// stay zero and the conditional is P̂(X_col | sampled x_<col). Callers that
// jump must leave skipped columns' codes negative so the later fold agrees.
// Any other out-of-contract call (batch-size change, backward column) falls
// back to the stateless full forward pass.
func (m *Model) CondBatch(codes []int32, n int, col int, out [][]float64) {
	if col < 0 || col >= len(m.domains) {
		panic(fmt.Sprintf("made: CondBatch column %d of %d", col, len(m.domains)))
	}
	if m.samp.active && n == m.samp.n && col >= m.samp.nextCol {
		// In-walk call, possibly jumping over skipped (wildcard) columns: the
		// block path folds the last decoded column and refreshes only the
		// degree bands the decode reads.
		m.AdvanceBlock(codes, n, col)
		m.DecodeBlock(col, 0, n, out)
		return
	}
	m.samp.active = false // out-of-sequence call: the delta cache is stale
	m.encode(codes, n, col)
	h := m.inferTrunk(m.x)
	m.decodeHidden(h, n, col, out)
}

// LogProbBatch writes log P̂(x) (nats) for each of n full tuples into dst.
// One forward pass yields all per-column conditionals (Eq. 1).
func (m *Model) LogProbBatch(codes []int32, n int, dst []float64) {
	m.samp.active = false
	m.encode(codes, n, len(m.domains))
	headOut := m.forward()
	nc := len(m.domains)
	maxDom := 0
	for _, d := range m.domains {
		if d > maxDom {
			maxDom = d
		}
	}
	buf := make([]float32, maxDom)
	for r := 0; r < n; r++ {
		var lp float64
		for i := range m.codecs {
			logits := m.logitsFor(headOut, r, i, buf)
			lp += nn.LogProb(logits, int(codes[r*nc+i]))
		}
		dst[r] = lp
	}
}
