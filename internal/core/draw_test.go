package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// linearDrawRows is the in-range draw step as Algorithm 1 states it, and as
// the walk ran it before the table draw: re-sum the row's in-range mass,
// then scan the valid list for the first running sum that reaches u. It is
// kept as the reference the table draw must match bit for bit.
func linearDrawRows(rng *rand.Rand, isAll bool, vs []int32, codes []int32, nc, col int, probs [][]float64, weights []float64, r0, r1 int) {
	for r := r0; r < r1; r++ {
		if !(weights[r] > 0) {
			codes[r*nc+col] = vs[0]
			continue
		}
		p := probs[r]
		var mass float64
		if isAll {
			mass = 1
		} else {
			for _, v := range vs {
				mass += p[v]
			}
		}
		if !(mass > 0) {
			weights[r] = max(mass, 0) // NaN stays NaN
			codes[r*nc+col] = vs[0]
			continue
		}
		weights[r] *= mass
		u := rng.Float64() * mass
		var cum float64
		pick := vs[len(vs)-1]
		for _, v := range vs {
			cum += p[v]
			if cum >= u {
				pick = v
				break
			}
		}
		codes[r*nc+col] = pick
	}
}

// linearDrawScaledRows is the scale-column reference: the tilted terms
// p[v]·inv[v] summed into the mass, then scanned like linearDrawRows.
func linearDrawScaledRows(rng *rand.Rand, inv []float64, codes []int32, nc, col int, probs [][]float64, weights []float64, r0, r1 int) {
	for r := r0; r < r1; r++ {
		if !(weights[r] > 0) {
			codes[r*nc+col] = 0
			continue
		}
		p := probs[r]
		var mass float64
		for v := range inv {
			mass += p[v] * inv[v]
		}
		if !(mass > 0) {
			weights[r] = max(mass, 0) // NaN stays NaN
			codes[r*nc+col] = 0
			continue
		}
		weights[r] *= mass
		u := rng.Float64() * mass
		var cum float64
		pick := int32(len(inv) - 1)
		for v := range inv {
			cum += p[v] * inv[v]
			if cum >= u {
				pick = int32(v)
				break
			}
		}
		codes[r*nc+col] = pick
	}
}

// seqSource is a rand.Source that replays fixed Int63 values, so a test can
// choose the uniform variates a draw sees: Float64 returns v/2⁶³.
type seqSource struct {
	vals []int64
	i    int
}

func (s *seqSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *seqSource) Seed(int64) { s.i = 0 }

// float63 is the Int63 value whose Float64 is f (f a multiple of 2⁻⁶³).
func float63(f float64) int64 { return int64(f * (1 << 63)) }

// drawCase is one column's draw over a set of rows: the decoded rows, the
// column's valid list and inverse fanouts (nil unless a scale column), the
// rows' weights on entry, and the RNG both draws start from.
type drawCase struct {
	name     string
	probs    [][]float64
	vs       []int32
	inv      []float64
	wildcard bool
	weights  []float64
	rng      func() *rand.Rand
}

// drawOut is what a draw leaves behind: the codes and weights of its rows
// and the next value of its RNG.
type drawOut struct {
	codes []int32
	w     []float64
	next  float64
}

// checkTableDraw runs c through the linear references and through the
// walk's table draw — one table per group of bit-identical rows, a group of
// one built in place over its row and a larger group's in the group arena,
// every member drawing from it — and requires the same codes, the same
// weight bits and the same next RNG value from both.
func checkTableDraw(t *testing.T, c drawCase) {
	t.Helper()
	n := len(c.probs)
	const nc, col = 3, 1
	run := func(draw func(rng *rand.Rand, probs [][]float64, codes []int32, w []float64)) drawOut {
		probs := make([][]float64, n)
		for r, p := range c.probs {
			probs[r] = append([]float64(nil), p...)
		}
		codes, w := make([]int32, n*nc), append([]float64(nil), c.weights...)
		rng := c.rng()
		draw(rng, probs, codes, w)
		return drawOut{codes: codes, w: w, next: rng.Float64()}
	}
	want := run(func(rng *rand.Rand, probs [][]float64, codes []int32, w []float64) {
		if c.inv != nil {
			linearDrawScaledRows(rng, c.inv, codes, nc, col, probs, w, 0, n)
			return
		}
		linearDrawRows(rng, c.wildcard, c.vs, codes, nc, col, probs, w, 0, n)
	})
	grouped := run(func(rng *rand.Rand, probs [][]float64, codes []int32, w []float64) {
		g := newPrefixGroups(len(probs[0]))
		var first []int
		for r := range probs {
			k := slices.IndexFunc(first, func(f int) bool { return sameBits(probs[f], probs[r]) })
			if k < 0 {
				k = len(first)
				first = append(first, r)
				g.size[k] = 0
			}
			g.of[r] = int32(k)
			if g.size[k]++; g.size[k] == 2 {
				g.multi++
			}
		}
		g.startColumn(len(c.vs))
		for k, f := range first {
			g.setTable(int32(k), probs[f], c.vs, c.inv, c.wildcard)
		}
		for r := 0; r < n; r++ {
			if !(w[r] > 0) {
				codes[r*nc+col] = c.vs[0]
				continue
			}
			if k := g.of[r]; g.scan[k] {
				codes[r*nc+col] = scanDraw(rng, g.tab[k], c.vs)
			} else {
				codes[r*nc+col] = drawRow(rng, g.tab[k], g.mass[k], c.vs, &w[r])
			}
		}
	})
	for r := 0; r < n; r++ {
		if grouped.codes[r*nc+col] != want.codes[r*nc+col] || math.Float64bits(grouped.w[r]) != math.Float64bits(want.w[r]) {
			t.Fatalf("%s, row %d: code %d weight %v; linear scan: code %d weight %v",
				c.name, r, grouped.codes[r*nc+col], grouped.w[r], want.codes[r*nc+col], want.w[r])
		}
	}
	if grouped.next != want.next {
		t.Fatalf("%s: next RNG value %v; linear scan leaves %v", c.name, grouped.next, want.next)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestEstimateFusedTableDrawMatchesLinearScan: the binary search over a
// cumulative table picks exactly the code, weight and RNG consumption of
// Algorithm 1's linear scan, on the rows where the two could part ways.
func TestEstimateFusedTableDrawMatchesLinearScan(t *testing.T) {
	nan := math.NaN()
	fixed := func(us ...float64) func() *rand.Rand {
		return func() *rand.Rand {
			vals := make([]int64, len(us))
			for i, u := range us {
				vals[i] = float63(u)
			}
			return rand.New(&seqSource{vals: vals})
		}
	}
	seeded := func(seed int64) func() *rand.Rand {
		return func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	}
	ones := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	all := func(n int) []int32 {
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = int32(i)
		}
		return vs
	}
	cases := []drawCase{
		{name: "zero-mass range", vs: []int32{1, 3},
			probs:   [][]float64{{0.5, 0, 0.5, 0}, {0.25, 0, 0.75, 0}, {0, 0.5, 0, 0.5}},
			weights: ones(3), rng: seeded(1)},
		{name: "dead rows", vs: []int32{0, 2},
			probs:   [][]float64{{0.5, 0, 0.5}, {0.5, 0, 0.5}, {0.5, 0, 0.5}, {0.2, 0.3, 0.5}},
			weights: []float64{0, nan, 0.5, math.Copysign(0, -1)}, rng: seeded(2)},
		{name: "ties across zero-probability codes", vs: all(6),
			probs:   [][]float64{{0.25, 0, 0, 0.25, 0, 0.5}, {0, 0, 0.5, 0, 0, 0.5}},
			weights: ones(2), rng: fixed(0.25, 0.5)},
		{name: "u equal to a running sum", vs: []int32{0, 1, 2, 3},
			probs:   [][]float64{{0.125, 0.125, 0.25, 0.5}, {0.125, 0.125, 0.25, 0.5}, {0.125, 0.125, 0.25, 0.5}},
			weights: ones(3), rng: fixed(0.25, 0.5, 0.125)},
		{name: "wildcard sum short of 1", vs: all(3), wildcard: true,
			probs:   [][]float64{{0.3, 0.3, 0.3}, {0.3, 0.3, 0.3}, {0.1, 0.2, 0.3}},
			weights: ones(3), rng: fixed(0.95, 0.5, 0.999)},
		{name: "wildcard NaN term before the pick", vs: all(4), wildcard: true,
			probs:   [][]float64{{0.25, nan, 0.25, 0.5}, {nan, 0.25, 0.25, 0.5}},
			weights: ones(2), rng: fixed(0.75, 0.125)},
		{name: "wildcard NaN term after the pick", vs: all(4), wildcard: true,
			probs:   [][]float64{{0.25, 0.25, nan, 0.5}, {0.5, 0.25, 0.25, nan}},
			weights: ones(2), rng: fixed(0.375, 0.5)},
		{name: "in-range NaN term", vs: []int32{0, 2},
			probs:   [][]float64{{0.25, 0.25, nan}, {nan, 0.5, 0.5}, {0.25, 0.25, 0.5}},
			weights: ones(3), rng: seeded(3)},
		{name: "single-code valid list", vs: []int32{2},
			probs:   [][]float64{{0.2, 0.3, 0.5}, {0.5, 0.5, 0}, {0, 0, 1}},
			weights: ones(3), rng: seeded(4)},
		{name: "scale column", vs: all(4), inv: []float64{1, 0.5, 0.25, 0.125},
			probs:   [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.1, 0.2, 0.3, 0.4}, {0, 0, 0, 0}, {0.4, 0.3, nan, 0.1}, {0.7, 0.1, 0.1, 0.1}},
			weights: []float64{1, 1, 1, 1, 0}, rng: seeded(5)},
		{name: "scale column at a running sum", vs: all(3), inv: []float64{1, 0.5, 0.5},
			probs:   [][]float64{{0.25, 0.5, 1}, {0.5, 0.5, 0}},
			weights: ones(2), rng: fixed(0.25, 0.75)},
	}
	// Random rows: mostly shared conditionals (as a block's prefix groups
	// share them), some zero and some negative terms, some dead paths, over
	// in-range, wildcard and scale columns.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		dom := 1 + rng.Intn(40)
		shared := make([][]float64, 1+rng.Intn(4))
		for j := range shared {
			p := make([]float64, dom)
			for v := range p {
				switch x := rng.Float64(); {
				case x < 0.2:
				case x < 0.22:
					p[v] = -rng.Float64() / 8
				default:
					p[v] = rng.Float64() / float64(dom)
				}
			}
			shared[j] = p
		}
		c := drawCase{name: "random", rng: seeded(int64(100 + i))}
		for r := 0; r < 1+rng.Intn(24); r++ {
			c.probs = append(c.probs, shared[rng.Intn(len(shared))])
			w := 1.0
			if rng.Float64() < 0.15 {
				w = 0
			}
			c.weights = append(c.weights, w)
		}
		switch rng.Intn(3) {
		case 0:
			for v := 0; v < dom; v++ {
				if rng.Float64() < 0.5 {
					c.vs = append(c.vs, int32(v))
				}
			}
			if len(c.vs) == 0 {
				c.vs = []int32{int32(rng.Intn(dom))}
			}
		case 1:
			c.vs, c.wildcard = all(dom), true
		case 2:
			c.vs = all(dom)
			for v := 0; v < dom; v++ {
				c.inv = append(c.inv, 1/float64(1+rng.Intn(5)))
			}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		checkTableDraw(t, c)
	}
}
