package made

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// condReference computes P̂(X_col | x_<col) through the training-path
// machinery (trunk.Forward + logitsFor), independent of both the fused
// full-forward inference path and the delta-forward cache.
func condReference(m *Model, codes []int32, n, col int, out [][]float64) {
	m.samp.active = false
	m.encode(codes, n, col)
	headOut := m.head.Forward(m.trunk.Forward(m.x))
	c := &m.codecs[col]
	buf := make([]float32, c.domain)
	for r := 0; r < n; r++ {
		logits := m.logitsFor(headOut, r, col, buf)
		nn.Softmax(logits, out[r][:c.domain])
	}
}

func randomCodes(rng *rand.Rand, domains []int, n int) []int32 {
	codes := make([]int32, n*len(domains))
	for r := 0; r < n; r++ {
		for i, d := range domains {
			codes[r*len(domains)+i] = int32(rng.Intn(d))
		}
	}
	return codes
}

func allocOut(domains []int, n int) [][]float64 {
	maxDom := 0
	for _, d := range domains {
		if d > maxDom {
			maxDom = d
		}
	}
	out := make([][]float64, n)
	for r := range out {
		out[r] = make([]float64, maxDom)
	}
	return out
}

func maxCondDiff(domains []int, a, b [][]float64, col int) float64 {
	var mx float64
	for r := range a {
		for v := 0; v < domains[col]; v++ {
			if d := math.Abs(a[r][v] - b[r][v]); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// TestIncrementalForwardMatchesFull walks columns in sampling order through
// the delta-forward cache and checks every conditional against the full
// training-path forward. Mixes one-hot and embedded columns so both delta
// kinds are exercised.
func TestIncrementalForwardMatchesFull(t *testing.T) {
	domains := []int{5, 80, 3, 100, 7}
	m := New(domains, tinyConfig(3))
	ref := New(domains, tinyConfig(3))
	rng := rand.New(rand.NewSource(11))
	n := 17
	codes := randomCodes(rng, domains, n)

	got := allocOut(domains, n)
	want := allocOut(domains, n)
	m.BeginSampling(n)
	for col := range domains {
		m.CondBatch(codes, n, col, got)
		condReference(ref, codes, n, col, want)
		if d := maxCondDiff(domains, got, want, col); d > 1e-5 {
			t.Fatalf("col %d: incremental differs from full forward by %g", col, d)
		}
	}
}

// TestIncrementalSecondWalkIsClean re-arms the cache and checks that state
// from a previous walk (different batch contents) does not leak.
func TestIncrementalSecondWalkIsClean(t *testing.T) {
	domains := []int{6, 70, 4}
	m := New(domains, tinyConfig(4))
	ref := New(domains, tinyConfig(4))
	rng := rand.New(rand.NewSource(12))
	n := 9

	first := randomCodes(rng, domains, n)
	out := allocOut(domains, n)
	m.BeginSampling(n)
	for col := range domains {
		m.CondBatch(first, n, col, out)
	}

	second := randomCodes(rng, domains, n)
	want := allocOut(domains, n)
	m.BeginSampling(n)
	for col := range domains {
		m.CondBatch(second, n, col, out)
		condReference(ref, second, n, col, want)
		if d := maxCondDiff(domains, out, want, col); d > 1e-5 {
			t.Fatalf("second walk col %d differs by %g", col, d)
		}
	}
}

// TestJumpSkipsWildcardColumns checks the in-walk forward jump: columns the
// walk never sampled (codes -1) are treated as absent, and the conditional
// matches the full forward pass over the same -1-marked codes.
func TestJumpSkipsWildcardColumns(t *testing.T) {
	domains := []int{5, 80, 3, 60, 7}
	m := New(domains, tinyConfig(5))
	ref := New(domains, tinyConfig(5))
	rng := rand.New(rand.NewSource(13))
	n := 8
	codes := randomCodes(rng, domains, n)
	// Columns 1 (embedded) and 3 (embedded) are wildcard-skipped.
	for r := 0; r < n; r++ {
		codes[r*len(domains)+1] = -1
		codes[r*len(domains)+3] = -1
	}
	out := allocOut(domains, n)
	want := allocOut(domains, n)

	m.BeginSampling(n)
	m.CondBatch(codes, n, 0, out)
	for _, col := range []int{2, 4} { // jump over the skipped columns
		m.CondBatch(codes, n, col, out)
		condReference(ref, codes, n, col, want)
		if d := maxCondDiff(domains, out, want, col); d > 1e-5 {
			t.Fatalf("jump to col %d differs by %g", col, d)
		}
	}
	if !m.samp.active {
		t.Fatal("delta cache disarmed by an in-contract jump")
	}
}

// TestOutOfSequenceFallsBackToFull checks that a CondBatch call breaking the
// walk contract (batch-size change) silently takes the full path and still
// returns correct conditionals.
func TestOutOfSequenceFallsBackToFull(t *testing.T) {
	domains := []int{5, 80, 3}
	m := New(domains, tinyConfig(5))
	ref := New(domains, tinyConfig(5))
	rng := rand.New(rand.NewSource(13))
	n := 8
	codes := randomCodes(rng, domains, n)
	out := allocOut(domains, n)
	want := allocOut(domains, n)

	m.BeginSampling(n)
	m.CondBatch(codes, n, 0, out)
	// Shrink the batch below the announced size through CondBatch (the
	// block entry points panic instead): full-path fallback.
	m.CondBatch(codes, n-2, 2, out)
	condReference(ref, codes, n-2, 2, want)
	if d := maxCondDiff(domains, out[:n-2], want[:n-2], 2); d > 1e-5 {
		t.Fatalf("out-of-sequence call differs by %g", d)
	}
	if m.samp.active {
		t.Fatal("delta cache still armed after out-of-sequence call")
	}
}

// TestForkSharesWeightsOwnsScratch checks that a fork returns the same
// conditionals as the parent, shares parameter storage, and keeps its own
// sampling state.
func TestForkSharesWeightsOwnsScratch(t *testing.T) {
	domains := []int{5, 80, 3}
	m := New(domains, tinyConfig(6))
	f := m.Fork()

	if len(f.params) != len(m.params) {
		t.Fatalf("fork has %d params, parent %d", len(f.params), len(m.params))
	}
	if f.firstLinear().W != m.firstLinear().W {
		t.Fatal("fork does not share trunk weights")
	}
	if f.head.W != m.head.W {
		t.Fatal("fork does not share head weights")
	}

	rng := rand.New(rand.NewSource(14))
	n := 6
	codes := randomCodes(rng, domains, n)
	got := allocOut(domains, n)
	want := allocOut(domains, n)

	// Interleave the two walks; each model's cache must stay independent.
	m.BeginSampling(n)
	f.BeginSampling(n)
	for col := range domains {
		m.CondBatch(codes, n, col, want)
		f.CondBatch(codes, n, col, got)
		if d := maxCondDiff(domains, got, want, col); d > 0 {
			t.Fatalf("col %d: fork differs from parent by %g", col, d)
		}
	}
	if m.samp.h1pre == f.samp.h1pre {
		t.Fatal("fork shares the delta cache with its parent")
	}
	var _ *tensor.Matrix = f.samp.h1pre // fork really armed its own cache
}

// TestForkModelReturnsModel checks the any-typed Forkable hook yields a
// usable replica.
func TestForkModelReturnsModel(t *testing.T) {
	m := New([]int{4, 9}, tinyConfig(7))
	f, ok := m.ForkModel().(*Model)
	if !ok || f == nil {
		t.Fatalf("ForkModel returned %T", m.ForkModel())
	}
	if f.NumCols() != m.NumCols() {
		t.Fatalf("fork NumCols %d vs %d", f.NumCols(), m.NumCols())
	}
}
