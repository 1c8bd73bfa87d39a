package made

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Block-granular sampling. The fused serving engine (internal/core) walks many
// queries' sample rows through the network as one tall batch, column by
// column. Two things distinguish that walk from the strict sequential one the
// delta-forward cache (infer.go) was built for:
//
//   - columns may be skipped: a query with an interior wildcard never samples
//     the column, so its code stays -1 and the input block stays zero — the
//     autoregressive state must advance across the gap without a decode;
//   - only a row range of the batch may need a column's conditionals, and the
//     active batch shrinks as finished queries retire from the tail.
//
// AdvanceBlock/DecodeBlock split CondBatch into those two halves, and the
// suffix refresh of the old walk tightens into *degree bands*: revealing
// column c dirties units of degree ≥ c+1, but decoding column col only reads
// units of degree ≤ col, so the walk lazily refreshes each layer's band
// [refreshed[l], hidStart[l][col+1]) exactly once — over a whole walk every
// hidden unit is recomputed once instead of once per remaining column, an
// ~ncols/2× reduction in trunk work. Band results are bit-identical to the
// eager suffix refresh: a band GEMM reads only the (current) prefix of the
// previous layer admitted by its degree, and the masked weights above that
// prefix are exactly zero.
//
// All weight windows the walk replays — degree bands, per-column head
// prefixes, decode transposes, and the first layer's embedded-fold blocks —
// are packed once and cached on the model (invalidated by training), so the
// per-step GEMMs skip the pack pass entirely.

// packCache holds pre-packed weight windows for the block sampling path. It
// is per-model state (forks build their own) and is dropped whenever a
// training step changes the parameters.
type packCache struct {
	band [][]*tensor.PackedB // [layer][degree]: W_l rows [:Kprev], cols = degree band
	head []*tensor.PackedB   // [col]: head.W rows [:Kc], cols = col's head block
	dec  []*tensor.PackedB   // [col]: PackTrans of the column's decode matrix
	w1   []*tensor.PackedB   // [col]: W1 rows = col's input block, cols [s0:)
}

// invalidatePacks drops every cached packing and the zero-input forward
// snapshot; the next block walk repacks (and re-snapshots) lazily from the
// updated weights.
func (m *Model) invalidatePacks() {
	m.packs = packCache{}
	m.samp.zeroH1 = nil
	m.samp.zeroPost = nil
}

// bandPack returns (building if needed) the packed window of hidden layer l's
// weights covering degree band d: output columns [hidStart[l][d],
// hidStart[l][d+1]), input rows limited to the prefix of the previous layer
// the band's mask admits (degree ≤ d). l counts hidden layers (l ≥ 1; layer 0
// is maintained by the fold itself).
func (m *Model) bandPack(l, d int) *tensor.PackedB {
	pc := &m.packs
	if pc.band == nil {
		pc.band = make([][]*tensor.PackedB, len(m.hidStart))
	}
	if pc.band[l] == nil {
		pc.band[l] = make([]*tensor.PackedB, len(m.domains)+1)
	}
	pb := pc.band[l][d]
	if pb == nil {
		lin := m.trunk.Layers[2*l].(*nn.Linear)
		b0, b1 := m.hidStart[l][d], m.hidStart[l][d+1]
		kPrev := m.hidStart[l-1][d+1] // first prev-layer unit the mask zeroes
		pb = new(tensor.PackedB)
		pb.PackRange(lin.W.Val, 0, kPrev, b0, b1)
		pc.band[l][d] = pb
	}
	return pb
}

// headPack returns the packed K-prefix window of the head weights for col:
// rows limited to the last-layer units of degree ≤ col (all others are
// masked to zero), columns = the column's head block.
func (m *Model) headPack(col int) *tensor.PackedB {
	pc := &m.packs
	if pc.head == nil {
		pc.head = make([]*tensor.PackedB, len(m.domains))
	}
	pb := pc.head[col]
	if pb == nil {
		c := &m.codecs[col]
		kc := m.hidStart[len(m.hidStart)-1][col+1]
		pb = new(tensor.PackedB)
		pb.PackRange(m.head.W.Val, 0, kc, c.headOff, c.headOff+c.headW)
		pc.head[col] = pb
	}
	return pb
}

// decPack returns the packed transpose of col's decode matrix (embedding
// reuse: logits = block·Eᵀ).
func (m *Model) decPack(col int) *tensor.PackedB {
	pc := &m.packs
	if pc.dec == nil {
		pc.dec = make([]*tensor.PackedB, len(m.domains))
	}
	pb := pc.dec[col]
	if pb == nil {
		pb = new(tensor.PackedB)
		pb.PackTrans(m.codecs[col].dec.Val)
		pc.dec[col] = pb
	}
	return pb
}

// w1Pack returns the packed window of the first layer's weights for folding
// an embedded column col: rows = the column's input block, columns = the
// suffix its degree can reach.
func (m *Model) w1Pack(col int) *tensor.PackedB {
	pc := &m.packs
	if pc.w1 == nil {
		pc.w1 = make([]*tensor.PackedB, len(m.domains))
	}
	pb := pc.w1[col]
	if pb == nil {
		c := &m.codecs[col]
		w1 := m.firstLinear().W.Val
		s0 := m.hidStart[0][col+1]
		pb = new(tensor.PackedB)
		pb.PackRange(w1, c.inOff, c.inOff+c.inW, s0, w1.Cols)
		pc.w1[col] = pb
	}
	return pb
}

// foldParallelMin gates the fold's clamp/Axpy loops between the inline
// serial loop and ParallelFor, in rows × window elements: below it the
// parallel dispatch (closure allocation + goroutine handoff) costs more than
// the loop itself, and the serial branch keeps the steady-state block walk
// allocation-free.
const foldParallelMin = 1 << 15

// foldRows folds column cc's freshly sampled codes into the first layer's
// caches for rows [r0, r1) only: the embedding gather (or one-hot Axpy) into
// h1pre's suffix window [hidStart[0][cc+1]:), then the post[0] re-clamp of
// the same window. Rows whose code is negative (wildcard-skipped or
// already-retired lanes whose column never sampled) contribute nothing —
// their input block stays zero. The step touches only rows [r0, r1), so
// disjoint ranges may run concurrently once the shared scratch (embA sizing,
// the w1 pack) is prepared; vPre/vEmb are view headers private to the
// caller's range. Staleness markers for deeper layers are the caller's job.
func (m *Model) foldRows(codes []int32, cc, r0, r1 int, vPre, vEmb *tensor.Matrix) {
	s := &m.samp
	c := &m.codecs[cc]
	nc := len(m.domains)
	s0 := m.hidStart[0][cc+1]
	if s0 >= s.h1pre.Cols {
		return
	}
	pre, post0 := s.h1pre, s.post[0]
	if c.embedded {
		// Gather the embedding rows and fold them with one accumulating
		// GEMM against the cached weight window; zero rows (negative
		// codes) add exact zeros.
		embA := m.infer.embA // pre-sized to the full batch by the caller
		for r := r0; r < r1; r++ {
			dst := embA.Row(r)
			if code := codes[r*nc+cc]; code >= 0 {
				c.emb.Lookup(code, dst)
			} else {
				for j := range dst {
					dst[j] = 0
				}
			}
		}
		preView := viewRows(vPre, pre, r0, r1)
		embView := viewRows(vEmb, embA, r0, r1)
		tensor.MatMulPackedWindow(preView, embView, m.w1Pack(cc), nil, false, true, s0)
		for r := r0; r < r1; r++ {
			tensor.PositivePart(post0.Row(r)[s0:], pre.Row(r)[s0:])
		}
	} else {
		w1 := m.firstLinear().W.Val
		for r := r0; r < r1; r++ {
			dst := pre.Row(r)[s0:]
			if code := codes[r*nc+cc]; code >= 0 {
				tensor.Axpy(1, w1.Row(c.inOff + int(code))[s0:], dst)
			}
			tensor.PositivePart(post0.Row(r)[s0:], dst)
		}
	}
}

// foldColumn folds the freshly sampled codes of column cc into the first
// layer's caches for rows [0, n), exactly as the eager walk did, and marks
// the deeper layers stale; AdvanceBlock refreshes them band-by-band on
// demand. Large folds fan the row-independent work across cores.
//
// Rows whose code is negative (lanes that wildcard-skipped cc) are skipped
// outright rather than folded as zeros: their input block contributes
// nothing, so their h1pre rows are unchanged and the earlier clamp of the
// same rows still holds — bit-identical to never touching them, which is
// exactly what the sequential walk does. In a fused block that packs lanes
// with different footprints, this keeps the fold's cost proportional to the
// rows that actually sampled cc instead of the full block height.
func (m *Model) foldColumn(codes []int32, n, cc int) {
	s := &m.samp
	c := &m.codecs[cc]
	s0 := m.hidStart[0][cc+1]
	if s0 < s.h1pre.Cols {
		if c.embedded {
			m.infer.embA = resizeMat(m.infer.embA, n, c.inW)
			m.w1Pack(cc)
		}
		nc := len(m.domains)
		for r0 := 0; r0 < n; {
			if codes[r0*nc+cc] < 0 {
				r0++
				continue
			}
			r1 := r0 + 1
			for r1 < n && codes[r1*nc+cc] >= 0 {
				r1++
			}
			if (r1-r0)*(s.h1pre.Cols-s0) < foldParallelMin {
				m.foldRows(codes, cc, r0, r1, &s.vFold, &s.vEmb)
			} else {
				base := r0
				tensor.ParallelFor(r1-r0, func(start, end int) {
					var vPre, vEmb tensor.Matrix
					m.foldRows(codes, cc, base+start, base+end, &vPre, &vEmb)
				})
			}
			r0 = r1
		}
	}
	// Deeper layers: revealing a column of input degree cc+1 dirties units of
	// degree ≥ cc+1. Layer 0 was fully re-clamped above.
	for l := 1; l < len(s.post); l++ {
		if t := m.hidStart[l][cc+1]; t < s.refreshed[l] {
			s.refreshed[l] = t
		}
	}
}

// AdvanceBlock moves the walk's autoregressive state to column col over rows
// [0, n): it folds the codes of the last decoded column (reading only columns
// < col; negative codes contribute nothing) and refreshes each hidden layer's
// stale degree bands up to what decoding col reads. Columns may be skipped —
// their codes stay -1 — and n may shrink between calls as finished lanes
// retire from the batch's tail; it must never grow within one walk.
func (m *Model) AdvanceBlock(codes []int32, n, col int) {
	s := &m.samp
	if !s.active || n > s.n || col < 0 || col >= len(m.domains) {
		panic(fmt.Sprintf("made: AdvanceBlock(n=%d, col=%d) outside active walk (n=%d, active=%v)",
			n, col, s.n, s.active))
	}
	if s.lastDecoded >= col {
		panic(fmt.Sprintf("made: AdvanceBlock col %d after col %d", col, s.lastDecoded))
	}
	s.decodeShared = false
	if s.lastDecoded >= 0 {
		m.foldColumn(codes, n, s.lastDecoded)
	}
	for l := 1; l < len(s.post); l++ {
		hi := m.hidStart[l][col+1]
		lo := s.refreshed[l]
		if hi <= lo {
			continue
		}
		curView := viewRows(&s.vCur, s.post[l], 0, n)
		prevView := viewRows(&s.vPrev, s.post[l-1], 0, n)
		bias := m.trunk.Layers[2*l].(*nn.Linear).B.Val.Data
		for d := 1; d <= len(m.domains); d++ {
			b0, b1 := m.hidStart[l][d], m.hidStart[l][d+1]
			if b1 <= lo || b0 >= hi || b0 == b1 {
				continue // outside the stale window, or an empty band
			}
			tensor.MatMulPackedPrefix(curView, prevView, m.bandPack(l, d), bias[b0:b1], true, false, b0)
		}
		s.refreshed[l] = hi
	}
	s.lastDecoded = col
	s.nextCol = col + 1
}

// BeginAdvanceRows implements the row-range advance protocol (see
// core.BlockRowAdvancer): it validates the advance to col exactly like
// AdvanceBlock over rows [0, n) and prepares the shared scratch — the
// embedding-gather buffer and every packed weight window the advance will
// replay — so AdvanceRows calls over disjoint row ranges can run
// concurrently without racing on lazy pack construction. The split is
// bit-identical to one AdvanceBlock(codes, n, col) call: folds, band GEMMs,
// and ReLU clamps are all row-independent, and FinishAdvanceRows commits the
// same staleness bookkeeping a full-height advance would.
func (m *Model) BeginAdvanceRows(n, col int) {
	s := &m.samp
	if !s.active || n > s.n || col < 0 || col >= len(m.domains) {
		panic(fmt.Sprintf("made: BeginAdvanceRows(n=%d, col=%d) outside active walk (n=%d, active=%v)",
			n, col, s.n, s.active))
	}
	if s.lastDecoded >= col {
		panic(fmt.Sprintf("made: BeginAdvanceRows col %d after col %d", col, s.lastDecoded))
	}
	s.decodeShared = false
	if cc := s.lastDecoded; cc >= 0 {
		if c := &m.codecs[cc]; c.embedded && m.hidStart[0][cc+1] < s.h1pre.Cols {
			m.infer.embA = resizeMat(m.infer.embA, n, c.inW)
			m.w1Pack(cc)
		}
	}
	for l := 1; l < len(s.post); l++ {
		hi, lo := m.advanceWindow(l, col)
		if hi <= lo {
			continue
		}
		for d := 1; d <= len(m.domains); d++ {
			b0, b1 := m.hidStart[l][d], m.hidStart[l][d+1]
			if b1 <= lo || b0 >= hi || b0 == b1 {
				continue
			}
			m.bandPack(l, d)
		}
	}
}

// advanceWindow returns the stale window [lo, hi) of hidden layer l for an
// advance to col, accounting for the not-yet-committed staleness the pending
// fold of lastDecoded introduces (the ranged advance defers the marker
// update to FinishAdvanceRows so concurrent ranges read consistent state).
func (m *Model) advanceWindow(l, col int) (hi, lo int) {
	s := &m.samp
	hi = m.hidStart[l][col+1]
	lo = s.refreshed[l]
	if cc := s.lastDecoded; cc >= 0 {
		if t := m.hidStart[l][cc+1]; t < lo {
			lo = t
		}
	}
	return hi, lo
}

// AdvanceRows performs the fold + band refresh of an advance to col for rows
// [r0, r1) only. Disjoint ranges may run concurrently between one
// BeginAdvanceRows(n, col) and one FinishAdvanceRows(col); the union of the
// ranges must cover [0, n). Each range's layer stack is self-contained:
// layer l's band GEMM reads layer l-1's rows of the same range, which the
// range itself just refreshed.
func (m *Model) AdvanceRows(codes []int32, col, r0, r1 int) {
	s := &m.samp
	if cc := s.lastDecoded; cc >= 0 {
		var vPre, vEmb tensor.Matrix
		m.foldRows(codes, cc, r0, r1, &vPre, &vEmb)
	}
	for l := 1; l < len(s.post); l++ {
		hi, lo := m.advanceWindow(l, col)
		if hi <= lo {
			continue
		}
		var vCur, vPrev tensor.Matrix
		curView := viewRows(&vCur, s.post[l], r0, r1)
		prevView := viewRows(&vPrev, s.post[l-1], r0, r1)
		bias := m.trunk.Layers[2*l].(*nn.Linear).B.Val.Data
		for d := 1; d <= len(m.domains); d++ {
			b0, b1 := m.hidStart[l][d], m.hidStart[l][d+1]
			if b1 <= lo || b0 >= hi || b0 == b1 {
				continue
			}
			tensor.MatMulPackedPrefix(curView, prevView, m.bandPack(l, d), bias[b0:b1], true, false, b0)
		}
	}
}

// FinishAdvanceRows commits the advance begun by BeginAdvanceRows after
// every row range has run: the same staleness markers and column cursor a
// full-height AdvanceBlock would leave.
func (m *Model) FinishAdvanceRows(col int) {
	s := &m.samp
	if cc := s.lastDecoded; cc >= 0 {
		for l := 1; l < len(s.post); l++ {
			if t := m.hidStart[l][cc+1]; t < s.refreshed[l] {
				s.refreshed[l] = t
			}
		}
	}
	for l := 1; l < len(s.post); l++ {
		if hi := m.hidStart[l][col+1]; hi > s.refreshed[l] {
			s.refreshed[l] = hi
		}
	}
	s.lastDecoded = col
	s.nextCol = col + 1
}

// PrepareDecode implements core.BlockRowDecoder: it sizes the column's
// decode scratch for the full walk height and pre-builds its packed weight
// windows, after which DecodeBlock calls over disjoint row ranges of the
// current column may run concurrently — each range reads and writes only its
// own rows of the shared scratch. The armed mode lasts until the next
// advance or BeginSampling.
func (m *Model) PrepareDecode(col int) {
	s := &m.samp
	if !s.active || s.lastDecoded != col {
		panic(fmt.Sprintf("made: PrepareDecode(col=%d) without AdvanceBlock (at %d)", col, s.lastDecoded))
	}
	c := &m.codecs[col]
	m.infer.head = resizeMat(m.infer.head, s.n, c.headW)
	m.headPack(col)
	if c.dec != nil {
		m.infer.logits = resizeMat(m.infer.logits, s.n, c.domain)
		m.decPack(col)
	}
	s.decodeShared = true
}

// DecodeBlock writes P̂(X_col | x_<col) for rows [r0, r1) of the walk into
// out (one probability vector per row, out[j] for row r0+j). The walk must
// have been advanced to col. After PrepareDecode(col), calls over disjoint
// row ranges may run concurrently; otherwise the decode reuses per-model
// scratch and callers must serialize.
func (m *Model) DecodeBlock(col, r0, r1 int, out [][]float64) {
	s := &m.samp
	if !s.active || s.lastDecoded != col {
		panic(fmt.Sprintf("made: DecodeBlock(col=%d) without AdvanceBlock (at %d)", col, s.lastDecoded))
	}
	if r0 < 0 || r1 < r0 || r1 > s.n {
		panic(fmt.Sprintf("made: DecodeBlock rows [%d:%d) of %d", r0, r1, s.n))
	}
	if r0 == r1 {
		return
	}
	last := s.post[len(s.post)-1]
	if s.decodeShared {
		// Concurrent window mode: stack-local view headers, offset-addressed
		// rows of the scratch PrepareDecode sized for the full walk.
		var vH tensor.Matrix
		m.decodeWindow(viewRows(&vH, last, r0, r1), col, r0, r1, out)
		return
	}
	m.decodeHidden(viewRows(&s.vHid, last, r0, r1), r1-r0, col, out)
}

// decodeWindow is decodeHidden over rows [r0, r1) of the full-height decode
// scratch (PrepareDecode mode): every buffer is addressed at the caller's
// row offset, so concurrent calls over disjoint ranges never share rows.
func (m *Model) decodeWindow(h *tensor.Matrix, col, r0, r1 int, out [][]float64) {
	c := &m.codecs[col]
	n := r1 - r0
	var vBlock, vLogits tensor.Matrix
	block := viewRows(&vBlock, m.infer.head, r0, r1)
	bias := m.head.B.Val.Data[c.headOff : c.headOff+c.headW]
	tensor.MatMulPackedPrefix(block, h, m.headPack(col), bias, false, false, 0)
	if c.dec == nil {
		for r := 0; r < n; r++ {
			nn.SoftmaxProb(block.Row(r), out[r][:c.domain])
		}
		return
	}
	logits := viewRows(&vLogits, m.infer.logits, r0, r1)
	tensor.MatMulPacked(logits, block, m.decPack(col), nil, false, false)
	for r := 0; r < n; r++ {
		nn.SoftmaxProb(logits.Row(r), out[r][:c.domain])
	}
}

// decodeHidden decodes column col's conditionals from final hidden
// activations h (n rows): the cached K-prefix head product, the cached
// embedding-reuse product when the column has one, and the fast row softmax.
// The head reads only last-layer units of degree ≤ col — a prefix under
// degree sorting — so rows of h beyond that prefix may hold stale values; the
// masked weights there are exactly zero and the prefix kernel never reads
// them.
func (m *Model) decodeHidden(h *tensor.Matrix, n, col int, out [][]float64) {
	c := &m.codecs[col]
	block := resizeMat(m.infer.head, n, c.headW)
	m.infer.head = block
	bias := m.head.B.Val.Data[c.headOff : c.headOff+c.headW]
	tensor.MatMulPackedPrefix(block, h, m.headPack(col), bias, false, false, 0)
	if c.dec == nil {
		for r := 0; r < n; r++ {
			nn.SoftmaxProb(block.Row(r), out[r][:c.domain])
		}
		return
	}
	logits := resizeMat(m.infer.logits, n, c.domain)
	m.infer.logits = logits
	tensor.MatMulPacked(logits, block, m.decPack(col), nil, false, false)
	for r := 0; r < n; r++ {
		nn.SoftmaxProb(logits.Row(r), out[r][:c.domain])
	}
}

// SkipsWildcards implements core.WildcardSkipper: the walk tolerates skipped
// columns (codes left at -1 advance the state with a zero input block).
func (m *Model) SkipsWildcards() bool { return true }
