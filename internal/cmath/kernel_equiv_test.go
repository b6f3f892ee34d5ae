package cmath

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// This file pins the bit-identity contract of the optimized kernels: the
// zero-skipping MulInto, the non-materializing ApplyKron, and the
// structure-aware propagator kernels (ExpmWorkspace's per-block exponential
// and MulExpInto) must produce results bit for bit equal to the naive
// reference implementations kept below. The optimizations are only allowed
// to change memory traffic and to leave out exact ±0 products, never a single
// floating-point operation's order per output element.

// mulRef is the textbook ijk matrix product: each output element sums its
// k-terms in ascending order into a local accumulator.
func mulRef(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s complex128
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// expmRef is the textbook scaling-and-squaring exponential the kernels
// replay: scale by 2^-s so the one-norm is at most 0.5, sum 18 Taylor terms
// (each the previous term times the scaled generator, times 1/k), square s
// times.
func expmRef(m *Matrix) *Matrix {
	norm := m.OneNorm()
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	scaled := Scale(complex(1/math.Pow(2, float64(s)), 0), m)
	result := Identity(m.Rows)
	term := Identity(m.Rows)
	for k := 1; k <= 18; k++ {
		term = mulRef(term, scaled)
		invK := complex(1/float64(k), 0)
		for i := range term.Data {
			term.Data[i] *= invK
		}
		for i := range result.Data {
			result.Data[i] += term.Data[i]
		}
	}
	for i := 0; i < s; i++ {
		result = mulRef(result, result)
	}
	return result
}

// applyKronRef materializes the Kronecker product and applies it.
func applyKronRef(a, b *Matrix, v []complex128) []complex128 {
	return Kron(a, b).ApplyTo(v)
}

func randMatrixRC(rng *rand.Rand, rows, cols int, sparse bool) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if sparse && rng.Intn(3) == 0 {
			continue // leave exact zeros to exercise the skip paths
		}
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func eqMatrix(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, wv := range want.Data {
		if got.Data[i] != wv {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, got.Data[i], wv)
		}
	}
}

// eqBits is eqMatrix that also tells +0 from −0: every real and imaginary
// part must have the same float64 bits.
func eqBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, wv := range want.Data {
		gv := got.Data[i]
		if math.Float64bits(real(gv)) != math.Float64bits(real(wv)) || math.Float64bits(imag(gv)) != math.Float64bits(imag(wv)) {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, gv, wv)
		}
	}
}

func eqVec(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i, wv := range want {
		if got[i] != wv {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, got[i], wv)
		}
	}
}

// mulShapes spans size-1 edges, odd sizes, non-square shapes and a few wide
// ones.
var mulShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 1, 7},
	{7, 1, 1},
	{1, 9, 1},
	{2, 2, 2},
	{3, 5, 4},
	{8, 8, 8},
	{5, 17, 3},
	{16, 16, 16},
	{10, 4, 63},
	{9, 3, 64},
	{7, 6, 65},
	{4, 70, 130},
	{33, 33, 33},
}

func TestMulIntoMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, sh := range mulShapes {
		for trial := 0; trial < 4; trial++ {
			sparse := trial%2 == 1
			a := randMatrixRC(rng, sh.m, sh.k, sparse)
			b := randMatrixRC(rng, sh.k, sh.n, sparse)
			want := mulRef(a, b)
			got := NewMatrix(sh.m, sh.n)
			// Pre-poison dst to prove MulInto fully overwrites it.
			for i := range got.Data {
				got.Data[i] = complex(1e300, -1e300)
			}
			MulInto(got, a, b)
			eqBits(t, "MulInto", got, want)
			eqBits(t, "Mul", Mul(a, b), want)
		}
	}
}

func TestMulIntoShapePanics(t *testing.T) {
	a, b := NewMatrix(2, 3), NewMatrix(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto accepted mismatched inner dimensions")
		}
	}()
	MulInto(NewMatrix(2, 2), a, b)
}

func TestApplyKronMatchesMaterializedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	shapes := []struct{ ar, ac, br, bc int }{
		{1, 1, 1, 1},
		{1, 1, 4, 4},
		{3, 3, 1, 1},
		{2, 2, 2, 2},
		{2, 3, 4, 2}, // non-square both factors
		{1, 5, 3, 1}, // row vector ⊗ column vector
		{5, 1, 1, 6},
		{4, 4, 3, 3},
		{3, 2, 5, 5},
		{8, 8, 2, 2},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 4; trial++ {
			sparse := trial%2 == 1
			a := randMatrixRC(rng, sh.ar, sh.ac, sparse)
			b := randMatrixRC(rng, sh.br, sh.bc, sparse)
			v := randVec(rng, sh.ac*sh.bc)
			want := applyKronRef(a, b, v)
			eqVec(t, "ApplyKron", ApplyKron(a, b, v), want)
			dst := make([]complex128, sh.ar*sh.br)
			ApplyKronInto(dst, a, b, v)
			eqVec(t, "ApplyKronInto", dst, want)
		}
	}
}

func TestApplyKronLengthPanics(t *testing.T) {
	a, b := NewMatrix(2, 2), NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyKron accepted a wrong-length vector")
		}
	}()
	ApplyKron(a, b, make([]complex128, 3))
}

// antiHermitian returns -i·t·(h + h†), the shape of generator the evolution
// code feeds Expm.
func antiHermitian(h *Matrix, t float64) *Matrix {
	return Scale(complex(0, -t), Add(h, Dagger(h)))
}

// blockGenerator returns a random anti-Hermitian n×n generator whose nonzero
// pattern splits into blocks of the given sizes over a random permutation of
// the indices, with some in-block entries zero as well. czGenerator's blocks
// (1, 2, 3, 2, 1 over the excitation-number sectors) are one instance.
func blockGenerator(rng *rand.Rand, sizes []int, t float64) *Matrix {
	n := 0
	for _, b := range sizes {
		n += b
	}
	perm := rng.Perm(n)
	h := NewMatrix(n, n)
	at := 0
	for _, b := range sizes {
		blk := perm[at : at+b]
		at += b
		for _, i := range blk {
			for _, j := range blk {
				if rng.Intn(4) != 0 {
					h.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
			}
		}
	}
	return antiHermitian(h, t)
}

// czGenerator is -i·t·H for two coupled three-level transmons as ham builds
// it: detuning and anharmonicity on the diagonal (zero for |00> and |01>)
// and exchange coupling between states of equal excitation number, so 15 of
// 81 entries are nonzero.
func czGenerator(delta, alpha, g, t float64) *Matrix {
	a, ad, id := Destroy(3), Create(3), Identity(3)
	num := Mul(ad, a)
	n1, n2 := Kron(num, id), Kron(id, num)
	anh := func(nOp *Matrix) *Matrix { return Scale(complex(alpha/2, 0), Sub(Mul(nOp, nOp), nOp)) }
	h := Add(anh(n1), anh(n2))
	AddInPlace(h, complex(g, 0), Add(Kron(ad, a), Kron(a, ad)))
	AddInPlace(h, complex(delta, 0), n1)
	return Scale(complex(0, -t), h)
}

// TestExpmWorkspaceMatchesExpm pins Expm and ExpmWorkspace.ExpmInto to
// expmRef, the textbook exponential.
func TestExpmWorkspaceMatchesExpm(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	var w ExpmWorkspace
	check := func(name string, gen *Matrix) {
		t.Helper()
		want := expmRef(gen)
		eqBits(t, name+"/Expm", Expm(gen), want)
		got := NewMatrix(gen.Rows, gen.Cols)
		got.Data[0] = complex(1e300, 0) // poison
		w.ExpmInto(got, gen)
		eqBits(t, name+"/ExpmInto", got, want)
		// Aliased dst == m must also work: the input is fully consumed
		// before dst is written.
		alias := gen.Clone()
		w.ExpmInto(alias, alias)
		eqBits(t, name+"/ExpmInto-aliased", alias, want)
	}
	for _, n := range []int{1, 2, 3, 4, 6, 9, 15} {
		for trial := 0; trial < 3; trial++ {
			// Dense generators at norms on both sides of the scaling cutoff,
			// and sparse ones whose pattern need not be symmetric.
			check("dense", antiHermitian(randMatrixRC(rng, n, n, false), rng.Float64()*3))
			check("sparse", Scale(complex(0, -rng.Float64()*3), randMatrixRC(rng, n, n, true)))
		}
	}
	for _, sizes := range [][]int{{1, 2, 3, 2, 1}, {3, 3, 3}, {1, 1, 1}, {2, 1}, {4, 5}, {9}, {1, 8}} {
		for trial := 0; trial < 3; trial++ {
			check("blocks", blockGenerator(rng, sizes, rng.Float64()*5))
		}
	}
	alpha := 2 * math.Pi * -300e6
	for _, delta := range []float64{0, -alpha, 2 * math.Pi * 800e6, 2 * math.Pi * 1e6} {
		check("cz", czGenerator(delta, alpha, 2*math.Pi*10e6, 0.4e-9))
	}
	// Zero entries of either sign, and components that are ±0 next to a
	// nonzero partner, must not change a bit.
	gen := czGenerator(-alpha, alpha, 2*math.Pi*10e6, 0.4e-9)
	gen.Set(0, 0, complex(math.Copysign(0, -1), math.Copysign(0, -1)))
	gen.Set(0, 5, complex(math.Copysign(0, -1), 0))
	gen.Set(4, 4, complex(math.Copysign(0, -1), imag(gen.At(4, 4))))
	check("signed-zeros", gen)
}

func TestExpmNonFinitePropagates(t *testing.T) {
	for _, bad := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 1)} {
		for _, gen := range []*Matrix{
			czGenerator(0, 2*math.Pi*-300e6, 2*math.Pi*10e6, 0.4e-9),
			antiHermitian(Identity(3), 0.2),
		} {
			gen.Set(gen.Rows-1, 0, bad)
			if err := CheckFinite("Expm", Expm(gen)); err == nil {
				t.Fatalf("%dx%d generator with %v entry gave a finite exponential", gen.Rows, gen.Cols, bad)
			}
		}
	}
}

func TestMulExpIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	var w ExpmWorkspace
	gens := []*Matrix{
		czGenerator(2*math.Pi*300e6, 2*math.Pi*-300e6, 2*math.Pi*10e6, 0.4e-9),
		blockGenerator(rng, []int{1, 2, 3, 2, 1}, 2),
		blockGenerator(rng, []int{2, 2}, 2),
		antiHermitian(randMatrixRC(rng, 3, 3, false), 1),
		blockGenerator(rng, []int{1, 1, 1}, 1),
		antiHermitian(randMatrixRC(rng, 5, 5, true), 1),
	}
	for gi, gen := range gens {
		n := gen.Rows
		e := NewMatrix(n, n)
		w.ExpmInto(e, gen)
		for _, sparse := range []bool{false, true} {
			b := randMatrixRC(rng, n, n, sparse)
			got := NewMatrix(n, n)
			got.Data[n*n-1] = complex(1e300, 0) // poison
			w.MulExpInto(got, b)
			eqBits(t, fmt.Sprintf("generator %d", gi), got, mulRef(e, b))
		}
	}
	// A zero column of b makes every product of an output column ±0; the
	// sum must still come out +0 where mulRef's does, whatever the signs.
	for trial := 0; trial < 200; trial++ {
		n := 2 + trial%8
		e := NewMatrix(n, n)
		w.ExpmInto(e, antiHermitian(randMatrixRC(rng, n, n, trial%2 == 0), 3))
		b := randMatrixRC(rng, n, n, false)
		for i := 0; i < n; i++ {
			b.Set(i, trial%n, 0)
		}
		got := NewMatrix(n, n)
		w.MulExpInto(got, b)
		eqBits(t, "zero column", got, mulRef(e, b))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulExpInto accepted a shape other than the latest exponential's")
		}
	}()
	w.MulExpInto(NewMatrix(4, 4), NewMatrix(4, 4))
}

func TestDaggerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, sh := range []struct{ r, c int }{{1, 1}, {1, 5}, {4, 1}, {3, 3}, {5, 7}} {
		m := randMatrixRC(rng, sh.r, sh.c, true)
		eqMatrix(t, "Dagger∘Dagger", Dagger(Dagger(m)), m)
		// (a⊗b)† == a†⊗b† bit-exactly: conjugation only negates imaginary
		// parts, which commutes with the product av*bv at the bit level.
		a := randMatrixRC(rng, 2, 3, false)
		eqMatrix(t, "Dagger-of-Kron", Dagger(Kron(a, m)), Kron(Dagger(a), Dagger(m)))
	}
}

func TestTraceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for _, n := range []int{1, 2, 5, 9} {
		m := randMatrixRC(rng, n, n, true)
		// tr(m†) == conj(tr(m)) exactly: conjugation distributes over the
		// sum without reordering it.
		if got, want := Trace(Dagger(m)), cmplx.Conj(Trace(m)); got != want {
			t.Fatalf("Trace(Dagger): %v, want %v", got, want)
		}
		if got := Trace(Identity(n)); got != complex(float64(n), 0) {
			t.Fatalf("Trace(I_%d) = %v", n, got)
		}
	}
}
