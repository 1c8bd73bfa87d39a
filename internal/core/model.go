// Package core implements the paper's primary contribution: the Naru
// selectivity estimator. It defines the autoregressive-model interface
// (Eq. 1), the unsupervised maximum-likelihood trainer (Eq. 2), entropy-gap
// goodness-of-fit accounting (§3.3), exact enumeration for small query
// regions, and — the heart of the paper — the progressive-sampling Monte
// Carlo integrator for range queries (§5.1, Algorithm 1).
//
// Any model exposing the interface below can be plugged in: the MADE masked
// MLP (internal/made, the paper's architecture B and its default), the
// per-column network (internal/colnet, architecture A), and the emulated
// oracle models used by the §6.7 microbenchmarks.
package core

// Model is the pluggable autoregressive density model of §3.2: one tuple
// goes in, the list of conditional distributions P̂(X_i | x_<i) comes out.
type Model interface {
	// NumCols returns the number of modeled attributes.
	NumCols() int

	// DomainSizes returns the per-column domain sizes |Ai|.
	DomainSizes() []int

	// CondBatch computes P̂(X_col | x_<col) for each of the n tuples in
	// codes (row-major with stride NumCols), writing one probability vector
	// of length DomainSizes()[col] per tuple into out. Implementations must
	// read only columns < col of each tuple.
	CondBatch(codes []int32, n int, col int, out [][]float64)

	// LogProbBatch writes log P̂(x) in nats for each of n full tuples.
	LogProbBatch(codes []int32, n int, dst []float64)

	// SizeBytes reports the uncompressed storage footprint of the model,
	// the quantity the paper's budgets constrain (Table 1).
	SizeBytes() int64
}

// Forkable is an optional extension for models that can produce replicas
// sharing their (read-only at inference time) parameters but owning private
// activation scratch. The concurrent estimator uses it to serve one replica
// per worker goroutine; models without it are served behind a mutex.
//
// ForkModel returns any rather than Model so model packages can implement it
// without importing core; the estimator asserts the result back to Model.
type Forkable interface {
	Model

	// ForkModel returns a replica (implementing Model) safe to use
	// concurrently with the parent and with other replicas, as long as
	// nothing trains any of them.
	ForkModel() any
}

// SequentialModel is an optional extension for models that exploit the
// strictly sequential column order of progressive sampling (CondBatch called
// with col = 0, 1, 2, ... over one fixed batch). The oracle models implement
// it to narrow their matching-row sets incrementally instead of re-scanning.
type SequentialModel interface {
	Model

	// BeginSampling announces that the next CondBatch calls will walk
	// columns 0..NumCols()-1 in order over a batch of n tuples.
	BeginSampling(n int)
}

// BlockModel is an optional extension for models whose sampling walk is
// separable into a trunk advance and a head readout — the hooks the fused
// walk drives. One BeginSampling/AdvanceBlock/DecodeBlock walk carries the
// sample chunks of one query's admission wave stacked into one tall batch:
// the trunk refresh and the per-column GEMMs run once over all rows, while
// each chunk keeps its own RNG stream, so the fused result is bit-identical
// to walking the chunks one at a time.
type BlockModel interface {
	SequentialModel

	// AdvanceBlock folds the previously decoded column's codes and brings
	// the trunk state current for decoding col over the block's n rows (the
	// height BeginSampling announced). The walk advances every column in
	// order, 0 first, each one after the previous column's codes are drawn.
	AdvanceBlock(codes []int32, n, col int)

	// DecodeBlock writes P̂(X_col | x_<col) for rows [r0, r1) of the current
	// block into out (out[i] holds row r0+i). A nil out[i] marks a row the
	// caller does not need: the model neither decodes nor writes it, and
	// every other row's vector is the one a decode of the whole range
	// writes. AdvanceBlock(_, _, col) must have run first.
	DecodeBlock(col, r0, r1 int, out [][]float64)
}

// BlockRowAdvancer is an optional extension of BlockModel for models whose
// trunk advance can be split over disjoint row ranges. The sequence
//
//	BeginAdvanceRows(n, col)
//	AdvanceRows(codes, col, r0, r1)   // ranges covering [0, n), any order,
//	                                  // disjoint ranges concurrently
//	FinishAdvanceRows(col)
//
// must be bit-identical to one AdvanceBlock(codes, n, col) call: the fold
// and refresh are row-independent, BeginAdvanceRows prepares any lazily
// built shared state (so concurrent ranges never race on it), and
// FinishAdvanceRows commits the walk bookkeeping once.
//
// Deprecated: the sampling walk no longer splits a block over row ranges
// and never calls it. It will be removed.
type BlockRowAdvancer interface {
	BlockModel

	// BeginAdvanceRows validates the advance and prepares shared scratch for
	// concurrent AdvanceRows calls over rows [0, n).
	BeginAdvanceRows(n, col int)

	// AdvanceRows performs the fold + trunk refresh for rows [r0, r1) only.
	AdvanceRows(codes []int32, col, r0, r1 int)

	// FinishAdvanceRows commits the advance after every range has run.
	FinishAdvanceRows(col int)
}

// BlockRowDecoder is an optional extension of BlockModel for models whose
// column decode can run concurrently over disjoint row ranges of the current
// block. PrepareDecode(col) sizes the decode scratch for the full walk
// height and builds any lazily packed weights; afterwards DecodeBlock calls
// with disjoint [r0, r1) may run in parallel, each touching only its own
// rows, until the next advance re-arms single-threaded mode.
//
// Deprecated: the sampling walk no longer splits a block over row ranges
// and never calls it. It will be removed.
type BlockRowDecoder interface {
	BlockModel

	// PrepareDecode arms concurrent row-range decodes of column col.
	PrepareDecode(col int)
}

// WildcardSkipper is an optional extension for models that accept code -1 as
// "column absent" in CondBatch/AdvanceBlock inputs.
//
// Deprecated: the sampling walk no longer skips wildcard columns and never
// calls it. It will be removed.
type WildcardSkipper interface {
	// SkipsWildcards reports whether absent-column (-1) codes are supported.
	SkipsWildcards() bool
}
