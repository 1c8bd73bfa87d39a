package made

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Inference fast path. Progressive sampling calls CondBatch with col = 0, 1,
// 2, ... over one fixed batch; between successive calls the only change to
// the network input is that column col-1's block, previously zero, now holds
// the freshly sampled codes. The masks bound how far that change can reach:
// column i's input block has degree i+1, and a unit anywhere in the trunk
// with degree d only sees inputs of degree <= d, so revealing column col-1
// leaves every unit with degree < col bit-for-bit unchanged — in every layer.
// New sorts each layer's degrees ascending, making the changed units a
// contiguous suffix [hidStart[l][col], width), and the walk maintains the
// per-layer post-ReLU activations by refreshing only those windows:
//
//	h1pre[:, s0:]  += W1[inOff:inOff+inW, s0:] · Δx      (delta, accumulated)
//	post[0][:, s0:] = relu(h1pre[:, s0:])
//	post[l][:, sl:] = relu(post[l-1] · Wl[:, sl:] + bl[sl:])   for l >= 1
//
// Only layer 1 needs the pre-activation cache (its input changes by a sparse
// delta worth one Axpy per tuple); deeper layers rerun their window densely
// through the packed column-sliced kernel, reading the already-current
// post[l-1]. One-hot columns contribute a single weight row per tuple;
// embedded columns contribute inW (=EmbedDim) rows scaled by the embedding
// vector. The column's head slice and decode still run densely. The full
// forward path is kept verbatim as the reference (and the fallback for
// out-of-sequence calls); tests assert the two agree.

// sampState tracks one in-flight sampling walk (strictly sequential via
// CondBatch, or block-granular with skips and tail retirement via
// AdvanceBlock/DecodeBlock in block.go).
type sampState struct {
	active      bool
	n           int // batch size announced by BeginSampling
	nextCol     int // lowest column the walk will accept next
	lastDecoded int // column decoded but not yet folded; -1 when none

	h1pre *tensor.Matrix   // n × W1 first-layer pre-activations (bias included)
	post  []*tensor.Matrix // n × Wl post-ReLU activations, one per hidden layer

	// refreshed[l] is the first unit of hidden layer l (l ≥ 1) whose cached
	// activation is stale; units below it are current for the folds applied
	// so far. Layer 0 is kept fully current by the fold itself.
	refreshed []int

	// zeroH1/zeroPost snapshot the zero-input trunk forward — the state every
	// walk starts from. BeginSampling replays the snapshot instead of
	// rerunning the trunk per block (bit-identical: the same values are
	// broadcast either way). Training drops it along with the packs.
	zeroH1   []float32
	zeroPost [][]float32

	// vFold/vCur/vPrev/vHid are pooled row-window view headers: the
	// sequential walk mutates these in place instead of allocating a Matrix
	// header per GEMM call, which keeps the steady-state block walk
	// allocation-free. The concurrent row-range entries (AdvanceRows, and
	// DecodeBlock after PrepareDecode) use stack-local headers instead, so
	// disjoint ranges never share them.
	vFold, vEmb, vCur, vPrev, vHid tensor.Matrix

	// decodeShared is set by PrepareDecode: the decode scratch is pre-sized
	// for the full walk height and DecodeBlock switches to offset-addressed
	// row windows, making concurrent disjoint-range decodes safe. Cleared by
	// the next advance or BeginSampling.
	decodeShared bool
}

// viewRows points dst at rows [r0, r1) of src (shared storage, no copy).
func viewRows(dst *tensor.Matrix, src *tensor.Matrix, r0, r1 int) *tensor.Matrix {
	dst.Rows, dst.Cols = r1-r0, src.Cols
	dst.Data = src.Data[r0*src.Cols : r1*src.Cols]
	return dst
}

// inferScratch holds buffers reused across CondBatch calls. Everything here
// is per-model state: replicas made with Fork get their own.
type inferScratch struct {
	head   *tensor.Matrix // column head-slice output
	logits *tensor.Matrix // decoded logits for embedded columns
	embA   *tensor.Matrix // gathered embedding rows for the fold GEMM
}

// BeginSampling implements core.SequentialModel: it arms the delta-forward
// cache for a walk of columns 0..NumCols()-1 over a batch of n tuples.
func (m *Model) BeginSampling(n int) {
	L := len(m.trunk.Layers) / 2
	s := &m.samp
	// Reshape the activation caches reusing their backing storage: fused
	// serving begins walks of alternating heights (full blocks, then the
	// batch tail), and reallocating multi-MB activation stacks per block was
	// the dominant cost of the fused path at one worker.
	if len(s.post) != L {
		s.post = make([]*tensor.Matrix, L)
	}
	for l := 0; l < L; l++ {
		s.post[l] = resizeMat(s.post[l], n, m.trunk.Layers[2*l].(*nn.Linear).W.Val.Cols)
	}
	s.h1pre = resizeMat(s.h1pre, n, s.post[0].Cols)
	// Column 0 sees an all-zero input, so every row of the batch starts from
	// identical activations: run the trunk once over a single zero row (views
	// into row 0 of the caches), snapshot it, and broadcast the result down
	// the batch. Later walks replay the snapshot — the trunk's zero-input
	// forward depends only on the weights, so the replay is bit-identical and
	// skips a pack+GEMM pass per layer per block.
	if n > 0 {
		if s.zeroH1 == nil {
			h1 := m.firstLinear()
			row := m.rowView(s.h1pre)
			copy(row.Data, h1.B.Val.Data)
			prev := m.rowView(s.post[0])
			tensor.PositivePart(prev.Data, row.Data)
			for l := 1; l < L; l++ {
				lin := m.trunk.Layers[2*l].(*nn.Linear)
				cur := m.rowView(s.post[l])
				tensor.LinearReLU(cur, prev, lin.W.Val, lin.B.Val.Data, true)
				prev = cur
			}
			s.zeroH1 = append(s.zeroH1[:0], s.h1pre.Data[:s.h1pre.Cols]...)
			s.zeroPost = s.zeroPost[:0]
			for l := 0; l < L; l++ {
				s.zeroPost = append(s.zeroPost, append([]float32(nil), s.post[l].Data[:s.post[l].Cols]...))
			}
		} else {
			copy(s.h1pre.Data[:s.h1pre.Cols], s.zeroH1)
			for l := 0; l < L; l++ {
				copy(s.post[l].Data[:s.post[l].Cols], s.zeroPost[l])
			}
		}
		broadcastRow0(s.h1pre)
		for l := 0; l < L; l++ {
			broadcastRow0(s.post[l])
		}
	}
	s.active = true
	s.n = n
	s.nextCol = 0
	s.lastDecoded = -1
	s.decodeShared = false
	// Everything is current for the zero-fold state the broadcast just built.
	if cap(m.samp.refreshed) < L {
		m.samp.refreshed = make([]int, L)
	}
	m.samp.refreshed = m.samp.refreshed[:L]
	for l := 0; l < L; l++ {
		m.samp.refreshed[l] = m.samp.post[l].Cols
	}
}

// rowView wraps row 0 of mat as a 1×Cols matrix sharing its storage.
func (m *Model) rowView(mat *tensor.Matrix) *tensor.Matrix {
	return tensor.FromSlice(1, mat.Cols, mat.Data[:mat.Cols])
}

// broadcastRow0 copies row 0 of mat into every other row.
func broadcastRow0(mat *tensor.Matrix) {
	row0 := mat.Data[:mat.Cols]
	for r := 1; r < mat.Rows; r++ {
		copy(mat.Row(r), row0)
	}
}

// firstLinear returns the trunk's first masked layer.
func (m *Model) firstLinear() *nn.Linear { return m.trunk.Layers[0].(*nn.Linear) }

// trunkTail runs trunk layers after the first Linear+ReLU pair with the
// fused inference kernels.
func (m *Model) trunkTail(h *tensor.Matrix) *tensor.Matrix {
	for i := 2; i < len(m.trunk.Layers); i += 2 {
		h = m.trunk.Layers[i].(*nn.Linear).InferForward(h, true)
	}
	return h
}

// inferTrunk runs the whole trunk with fused kernels (full-forward inference
// path; training keeps trunk.Forward so activations are cached for backward).
func (m *Model) inferTrunk(x *tensor.Matrix) *tensor.Matrix {
	h := m.firstLinear().InferForward(x, true)
	return m.trunkTail(h)
}

// Fork returns a replica that shares every parameter with m but owns its own
// activation scratch and sampling state, so replicas can serve CondBatch and
// LogProbBatch concurrently (one replica per goroutine). Forks are for
// inference: training through a fork corrupts the shared gradients.
func (m *Model) Fork() *Model {
	f := &Model{
		cfg:      m.cfg,
		domains:  m.domains,
		codecs:   append([]colCodec(nil), m.codecs...),
		inDim:    m.inDim,
		headDim:  m.headDim,
		trunk:    m.trunk.ShareWeights(),
		head:     m.head.ShareWeights(),
		params:   m.params,
		hidStart: m.hidStart,
	}
	return f
}

// ForkModel implements core.Forkable (returning any keeps this package from
// importing core; the estimator asserts the replica back to core.Model).
func (m *Model) ForkModel() any { return m.Fork() }
