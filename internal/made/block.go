package made

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Block-granular sampling. The fused serving engine (internal/core) walks a
// query's sample rows through the network as one tall batch, column by
// column, at the one height BeginSampling announced. What distinguishes that
// walk from the strict sequential one the delta-forward cache (infer.go) was
// built for is that a column's conditionals are decoded a row tile at a
// time, and only for the rows the caller asks for (one per prefix group).
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
// Layer 0 gets the same lazy treatment: a fold only adds to the first
// layer's pre-activations (h1pre), and AdvanceBlock re-clamps post[0] over
// the stale units [refreshed[0], hidStart[0][col+1]) just before the band
// GEMMs (or, on a one-hidden-layer model, the head) read them. Each unit is
// clamped once per walk, from its final pre-activation, instead of once per
// fold that reaches it.
//
// All weight windows the walk replays — degree bands, per-column head
// prefixes and decode transposes — are packed once and cached on the model
// (invalidated by training), so the per-step GEMMs skip the pack pass
// entirely. So are the embedded columns' fold tables: the first layer's
// product with each code's embedding, which turns an embedded fold into one
// row add, as a one-hot column's fold already is.
//
// Every kernel the walk runs (MatMulPackedPrefix, MatMulPackedWindow, the
// fold's row loops, the row softmax) runs on the calling goroutine at any
// block height. The walk's parallelism belongs to its caller: internal/core
// spends its worker budget on concurrent queries, one goroutine each. A
// kernel that fanned out on its own would nest a second fan-out under that
// budget and turn one worker into several cores. The row-range entry points (BeginAdvanceRows,
// AdvanceRows, FinishAdvanceRows, PrepareDecode) and SkipsWildcards remain
// for callers outside the walk and are deprecated.

// packCache holds pre-packed weight windows for the block sampling path. It
// is per-model state (forks build their own) and is dropped whenever a
// training step changes the parameters.
type packCache struct {
	band [][]*tensor.PackedB // [layer][degree]: W_l rows [:Kprev], cols = degree band
	head []*tensor.PackedB   // [col]: head.W rows [:Kc], cols = col's head block
	dec  []*tensor.PackedB   // [col]: PackTrans of the column's decode matrix
	fold []*tensor.Matrix    // [col]: embedded col's fold table, domain × (W1 cols − s0)
}

// invalidatePacks drops every cached packing, the fold tables and the
// zero-input forward snapshot; the next block walk repacks (and
// re-snapshots) lazily from the updated weights.
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
		pb = new(tensor.PackedB)
		pb.PackRange(m.head.W.Val, 0, m.headPrefix(col), c.headOff, c.headOff+c.headW)
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

// foldTable returns (building if needed) embedded column col's fold table:
// row v is E[v]·W1[col's input block, s0:), the first layer's pre-activation
// increment for code v over the suffix [s0, W1 cols) its degree can reach
// (s0 = hidStart[0][col+1] < W1 cols). The table is the per-row fold's GEMM
// run once per code, with the same packed kernel in store mode, so each
// element is that kernel's FMA chain from +0, and adding a row to h1pre is
// the one IEEE add its accumulate epilogue made: bit-identical. Like the
// zero-input snapshot, a table keeps the bits of the kernel path that built
// it. On DMV the tables take about 1 MB per replica.
func (m *Model) foldTable(col int) *tensor.Matrix {
	pc := &m.packs
	if pc.fold == nil {
		pc.fold = make([]*tensor.Matrix, len(m.domains))
	}
	t := pc.fold[col]
	if t == nil {
		c := &m.codecs[col]
		w1 := m.firstLinear().W.Val
		s0 := m.hidStart[0][col+1]
		var pb tensor.PackedB
		pb.PackRange(w1, c.inOff, c.inOff+c.inW, s0, w1.Cols)
		t = tensor.New(c.domain, w1.Cols-s0)
		tensor.MatMulPackedWindow(t, c.emb.W.Val, &pb, nil, false, false, 0)
		pc.fold[col] = t
	}
	return t
}

// foldRows folds column cc's freshly sampled codes into the first layer's
// pre-activations for rows [r0, r1) only: one row add into h1pre's suffix
// window [hidStart[0][cc+1]:) per row, of the code's W1 row for a one-hot
// column or of its fold-table row for an embedded one. A row whose code is
// negative contributes nothing — its input block stays zero. post[0] is
// re-clamped later (refreshRows), and the staleness markers are the
// caller's job. The step touches only rows [r0, r1), so disjoint ranges may
// run concurrently once the fold table is built.
func (m *Model) foldRows(codes []int32, cc, r0, r1 int) {
	s := &m.samp
	c := &m.codecs[cc]
	nc := len(m.domains)
	s0 := m.hidStart[0][cc+1]
	if s0 >= s.h1pre.Cols {
		return
	}
	src, off, j0 := m.firstLinear().W.Val, c.inOff, s0
	if c.embedded {
		src, off, j0 = m.foldTable(cc), 0, 0
	}
	for r := r0; r < r1; r++ {
		if code := codes[r*nc+cc]; code >= 0 {
			tensor.Axpy(1, src.Row(off + int(code))[j0:], s.h1pre.Row(r)[s0:])
		}
	}
}

// foldColumn folds the freshly sampled codes of column cc into the first
// layer's pre-activations for rows [0, n) and marks every layer stale from
// the first unit the column reaches; AdvanceBlock refreshes them on demand.
func (m *Model) foldColumn(codes []int32, n, cc int) {
	s := &m.samp
	m.foldRows(codes, cc, 0, n)
	// Revealing a column of input degree cc+1 dirties units of degree ≥ cc+1.
	for l := range s.post {
		if t := m.hidStart[l][cc+1]; t < s.refreshed[l] {
			s.refreshed[l] = t
		}
	}
}

// refreshRows brings rows [r0, r1) of hidden layer l current over the stale
// units [lo, hi): layer 0 re-clamps its pre-activations, and a deeper layer
// reruns the degree bands the window overlaps from the layer below, which
// must already be current over the prefix those bands read. vCur and vPrev
// are view headers private to the caller's range.
func (m *Model) refreshRows(l, lo, hi, r0, r1 int, vCur, vPrev *tensor.Matrix) {
	s := &m.samp
	if l == 0 {
		for r := r0; r < r1; r++ {
			tensor.PositivePart(s.post[0].Row(r)[lo:hi], s.h1pre.Row(r)[lo:hi])
		}
		return
	}
	curView := viewRows(vCur, s.post[l], r0, r1)
	prevView := viewRows(vPrev, s.post[l-1], r0, r1)
	bias := m.trunk.Layers[2*l].(*nn.Linear).B.Val.Data
	for d := 1; d <= len(m.domains); d++ {
		b0, b1 := m.hidStart[l][d], m.hidStart[l][d+1]
		if b1 <= lo || b0 >= hi || b0 == b1 {
			continue // outside the stale window, or an empty band
		}
		tensor.MatMulPackedPrefix(curView, prevView, m.bandPack(l, d), bias[b0:b1], true, false, b0)
	}
}

// AdvanceBlock moves the walk's autoregressive state to column col over rows
// [0, n), where n is the height BeginSampling announced: it folds the codes
// of the last decoded column (reading only columns < col; negative codes
// contribute nothing), then brings each hidden layer current up to what
// decoding col reads — layer 0's clamp, then the deeper layers' stale degree
// bands. Columns may be skipped: they are never folded, so the model treats
// them as absent.
func (m *Model) AdvanceBlock(codes []int32, n, col int) {
	s := &m.samp
	if !s.active || n != s.n || col < 0 || col >= len(m.domains) {
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
	for l := range s.post {
		if hi, lo := m.hidStart[l][col+1], s.refreshed[l]; lo < hi {
			m.refreshRows(l, lo, hi, 0, n, &s.vCur, &s.vPrev)
			s.refreshed[l] = hi
		}
	}
	s.lastDecoded = col
	s.nextCol = col + 1
}

// BeginAdvanceRows implements the row-range advance protocol (see
// core.BlockRowAdvancer): it validates the advance to col exactly like
// AdvanceBlock over rows [0, n) and builds what the advance will read — the
// folded column's fold table and every packed weight window — so
// AdvanceRows calls over disjoint row ranges can run concurrently without
// racing on lazy construction. The split is
// bit-identical to one AdvanceBlock(codes, n, col) call: folds, band GEMMs,
// and ReLU clamps are all row-independent, and FinishAdvanceRows commits the
// same staleness bookkeeping a full-height advance would.
//
// Deprecated: internal/core no longer advances a block by row ranges. It
// will be removed with core.BlockRowAdvancer.
func (m *Model) BeginAdvanceRows(n, col int) {
	s := &m.samp
	if !s.active || n != s.n || col < 0 || col >= len(m.domains) {
		panic(fmt.Sprintf("made: BeginAdvanceRows(n=%d, col=%d) outside active walk (n=%d, active=%v)",
			n, col, s.n, s.active))
	}
	if s.lastDecoded >= col {
		panic(fmt.Sprintf("made: BeginAdvanceRows col %d after col %d", col, s.lastDecoded))
	}
	s.decodeShared = false
	if cc := s.lastDecoded; cc >= 0 {
		if m.codecs[cc].embedded && m.hidStart[0][cc+1] < s.h1pre.Cols {
			m.foldTable(cc)
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

// AdvanceRows performs the fold, clamp and band refresh of an advance to col
// for rows [r0, r1) only. Disjoint ranges may run concurrently between one
// BeginAdvanceRows(n, col) and one FinishAdvanceRows(col); the union of the
// ranges must cover [0, n). Each range's layer stack is self-contained:
// layer l's band GEMM reads layer l-1's rows of the same range, which the
// range itself just refreshed.
//
// Deprecated: internal/core no longer advances a block by row ranges. It
// will be removed with core.BlockRowAdvancer.
func (m *Model) AdvanceRows(codes []int32, col, r0, r1 int) {
	s := &m.samp
	if cc := s.lastDecoded; cc >= 0 {
		m.foldRows(codes, cc, r0, r1)
	}
	var vCur, vPrev tensor.Matrix
	for l := range s.post {
		if hi, lo := m.advanceWindow(l, col); lo < hi {
			m.refreshRows(l, lo, hi, r0, r1, &vCur, &vPrev)
		}
	}
}

// FinishAdvanceRows commits the advance begun by BeginAdvanceRows after
// every row range has run: the same staleness markers and column cursor a
// full-height AdvanceBlock would leave.
//
// Deprecated: internal/core no longer advances a block by row ranges. It
// will be removed with core.BlockRowAdvancer.
func (m *Model) FinishAdvanceRows(col int) {
	s := &m.samp
	for l := range s.post {
		hi, lo := m.advanceWindow(l, col)
		s.refreshed[l] = max(hi, lo)
	}
	s.lastDecoded = col
	s.nextCol = col + 1
}

// PrepareDecode implements core.BlockRowDecoder: it sizes the column's
// decode and gather scratch for the full walk height and pre-builds its
// packed weight windows, after which DecodeBlock calls over disjoint row
// ranges of the current column may run concurrently — each range reads and
// writes only its own rows of the shared scratch. The armed mode lasts until
// the next advance or BeginSampling.
//
// Deprecated: internal/core no longer decodes a block by concurrent row
// ranges. It will be removed with core.BlockRowDecoder.
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
	m.infer.gath = resizeMat(m.infer.gath, s.n, m.headPrefix(col))
	if cap(m.infer.outs) < s.n {
		m.infer.outs = make([][]float64, s.n)
	}
	m.infer.outs = m.infer.outs[:s.n]
	s.decodeShared = true
}

// DecodeBlock writes P̂(X_col | x_<col) for rows [r0, r1) of the walk into
// out (one probability vector per row, out[j] for row r0+j). A row whose
// out[j] is nil is one the caller does not need: it is neither decoded nor
// written. When rows are skipped, the requested rows' head-prefix
// activations are gathered and decoded together; otherwise the range is
// decoded in place. Either way each row's vector is bit-identical, since the
// decode is row-independent. The walk must have been advanced to col. After
// PrepareDecode(col), calls over disjoint row ranges may run concurrently;
// otherwise the decode reuses per-model scratch and callers must serialize.
func (m *Model) DecodeBlock(col, r0, r1 int, out [][]float64) {
	s := &m.samp
	if !s.active || s.lastDecoded != col {
		panic(fmt.Sprintf("made: DecodeBlock(col=%d) without AdvanceBlock (at %d)", col, s.lastDecoded))
	}
	if r0 < 0 || r1 < r0 || r1 > s.n {
		panic(fmt.Sprintf("made: DecodeBlock rows [%d:%d) of %d", r0, r1, s.n))
	}
	out = out[:r1-r0]
	k := 0
	for _, o := range out {
		if o != nil {
			k++
		}
	}
	if k == 0 {
		return
	}
	last := s.post[len(s.post)-1]
	if s.decodeShared {
		// Concurrent window mode: stack-local view headers, offset-addressed
		// rows of the scratch PrepareDecode sized for the full walk. A range
		// gathers into its own first k rows of the full-height gather buffer.
		var vH tensor.Matrix
		h := viewRows(&vH, last, r0, r1)
		if k < len(out) {
			h = gatherRows(viewRows(&vH, m.infer.gath, r0, r0+k), last, r0, out, m.infer.outs[r0:r0+k])
			out = m.infer.outs[r0 : r0+k]
		}
		m.decodeWindow(h, col, r0, r0+k, out)
		return
	}
	h := viewRows(&s.vHid, last, r0, r1)
	if k < len(out) {
		m.infer.gath = resizeMat(m.infer.gath, k, m.headPrefix(col))
		if cap(m.infer.outs) < k {
			m.infer.outs = make([][]float64, k)
		}
		h = gatherRows(m.infer.gath, last, r0, out, m.infer.outs[:k])
		out = m.infer.outs[:k]
	}
	m.decodeHidden(h, k, col, out)
}

// headPrefix is the number of last-layer units column col's head reads:
// those of degree ≤ col, a prefix under degree sorting.
func (m *Model) headPrefix(col int) int { return m.hidStart[len(m.hidStart)-1][col+1] }

// gatherRows copies the head prefix (dst.Cols units) of every requested row
// of last — row r0+j for each non-nil out[j] — into the rows of dst in
// order, and the matching out entries into outs, and returns dst.
func gatherRows(dst, last *tensor.Matrix, r0 int, out, outs [][]float64) *tensor.Matrix {
	i := 0
	for j, o := range out {
		if o == nil {
			continue
		}
		copy(dst.Row(i), last.Row(r0 + j)[:dst.Cols])
		outs[i] = o
		i++
	}
	return dst
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
	tensor.MatMulPackedWindow(logits, block, m.decPack(col), nil, false, false, 0)
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
	tensor.MatMulPackedWindow(logits, block, m.decPack(col), nil, false, false, 0)
	for r := 0; r < n; r++ {
		nn.SoftmaxProb(logits.Row(r), out[r][:c.domain])
	}
}

// SkipsWildcards implements core.WildcardSkipper: the walk tolerates skipped
// columns (codes left at -1 advance the state with a zero input block).
//
// Deprecated: internal/core no longer skips wildcard columns. It will be
// removed with core.WildcardSkipper.
func (m *Model) SkipsWildcards() bool { return true }
