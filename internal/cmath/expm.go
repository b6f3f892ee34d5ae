package cmath

import "math"

// The propagator kernels below serve the gate-error models, which
// exponentiate one 3×3 (driven transmon) or 9×9 (coupled transmons)
// generator per DAC sample and multiply the propagators together. They use
// the structure those generators have (DESIGN.md, "Propagator kernels"):
// the exponential is taken block by block over the connected components of
// the nonzero pattern (the CZ generator splits into blocks of 1, 2, 3, 2
// and 1), and a tridiagonal block of three runs fixed-size code.
//
// Every kernel keeps MulInto's results bit for bit while every value stays
// finite: each output element still adds its products in ascending k to an
// accumulator that starts at +0. A term that is left out is an exact ±0
// product, and under round-to-nearest adding ±0 to such an accumulator never
// changes it, because the accumulator can never become −0.

// Expm returns the matrix exponential exp(m) computed by scaling-and-squaring
// with a truncated Taylor series (see ExpmWorkspace.ExpmInto).
func Expm(m *Matrix) *Matrix {
	var w ExpmWorkspace
	dst := NewMatrix(m.Rows, m.Cols)
	w.ExpmInto(dst, m)
	return dst
}

// ExpmWorkspace holds the scratch an exponential needs, so repeated
// exponentials of same-sized matrices (time-stepped Hamiltonian evolution)
// allocate nothing after the first call. It keeps the latest exponential for
// MulExpInto. The zero value is ready to use.
type ExpmWorkspace struct {
	exp *Matrix
	// Per-block scratch, dense and row-major: the scaled generator, the
	// Taylor sum, the current term, the squaring target and one term row.
	g, sum, term, sq, acc []complex128
	bl                    blocks
}

// ExpmInto computes dst = exp(m). The norm of m picks s so that the scaled
// generator m/2^s has one-norm at most 0.5; 18 Taylor terms then leave a
// truncation error near 1e-17, and s squarings undo the scaling. dst may
// alias m.
func (w *ExpmWorkspace) ExpmInto(dst, m *Matrix) {
	if !m.IsSquare() {
		panic("cmath: Expm of non-square matrix")
	}
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic("cmath: ExpmInto shape mismatch")
	}
	n := m.Rows
	if w.exp == nil || w.exp.Rows != n {
		w.exp = NewMatrix(n, n)
		w.g = make([]complex128, n*n)
		w.sum = make([]complex128, n*n)
		w.term = make([]complex128, n*n)
		w.sq = make([]complex128, n*n)
		w.acc = make([]complex128, n)
	}

	norm := m.OneNorm()
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	inv := complex(1/math.Pow(2, float64(s)), 0)

	w.bl.build(m)
	clear(w.exp.Data)
	for _, c := range w.bl.list {
		b := len(c)
		g := w.g[:b*b]
		for i, ri := range c {
			for j, cj := range c {
				g[i*b+j] = inv * m.Data[ri*n+cj]
			}
		}
		e := w.expBlock(b, s)
		for i, ri := range c {
			for j, cj := range c {
				w.exp.Data[ri*n+cj] = e[i*b+j]
			}
		}
	}
	copy(dst.Data, w.exp.Data)
}

// expBlock exponentiates the b×b block in w.g, already scaled by 2^-s, and
// returns the result, which is w.sum or w.sq.
func (w *ExpmWorkspace) expBlock(b, s int) []complex128 {
	g, sum, term, sq := w.g[:b*b], w.sum[:b*b], w.term[:b*b], w.sq[:b*b]
	clear(sum)
	clear(term)
	for i := 0; i < b; i++ {
		sum[i*b+i] = 1
		term[i*b+i] = 1
	}
	if b == 3 && g[2] == 0 && g[6] == 0 {
		taylor3((*[9]complex128)(sum), (*[9]complex128)(term), (*[9]complex128)(g))
	} else {
		// Each term is (previous term · g) times complex(1/k, 0). Row i of
		// a term depends only on row i of the previous one, so each row is
		// replaced in place.
		acc := w.acc[:b]
		for k := 1; k <= 18; k++ {
			invK := complex(1/float64(k), 0)
			for i := 0; i < b; i++ {
				row, res := term[i*b:(i+1)*b], sum[i*b:(i+1)*b]
				for j := range acc {
					acc[j] = dotCol(row, g, b, j)
				}
				for j, v := range acc {
					v *= invK
					row[j] = v
					res[j] += v
				}
			}
		}
	}
	for i := 0; i < s; i++ {
		if b == 3 {
			mul3((*[9]complex128)(sq), (*[9]complex128)(sum), (*[9]complex128)(sum))
		} else {
			for r := 0; r < b; r++ {
				for j := 0; j < b; j++ {
					sq[r*b+j] = dotCol(sum[r*b:(r+1)*b], sum, b, j)
				}
			}
		}
		sum, sq = sq, sum
	}
	return sum
}

// dotCol returns row times column j of the b×b row-major matrix m, summed in
// ascending k from +0.
func dotCol(row, m []complex128, b, j int) complex128 {
	var s complex128
	for k, av := range row {
		s += av * m[k*b+j]
	}
	return s
}

// taylor3 is expBlock's Taylor loop for a tridiagonal 3×3 block, one whose
// corners g[0][2] and g[2][0] are zero: a transmon ladder couples only
// neighbouring levels, and the middle CZ block (|02>, |11>, |20>) has no
// |02>↔|20> entry. The corner products are left out, seven multiply-adds
// per row instead of nine.
func taylor3(sum, term, g *[9]complex128) {
	for k := 1; k <= 18; k++ {
		invK := complex(1/float64(k), 0)
		for i := 0; i < 9; i += 3 {
			a0, a1, a2 := term[i], term[i+1], term[i+2]
			var c0, c2 complex128
			c0 += a0 * g[0]
			c0 += a1 * g[3]
			c1 := dot3(a0, a1, a2, g, 1)
			c2 += a1 * g[5]
			c2 += a2 * g[8]
			c0 *= invK
			c1 *= invK
			c2 *= invK
			term[i], term[i+1], term[i+2] = c0, c1, c2
			sum[i] += c0
			sum[i+1] += c1
			sum[i+2] += c2
		}
	}
}

// MulExpInto computes dst = E·b, where E is the exponential of the latest
// ExpmInto call and b has E's shape. Row i of E is zero outside i's block,
// so the product reads only those rows of b. dst must not alias b. For
// finite inputs the result is bit for bit MulInto(dst, E, b).
func (w *ExpmWorkspace) MulExpInto(dst, b *Matrix) {
	e := w.exp
	if e == nil || b.Rows != e.Rows || b.Cols != e.Cols || dst.Rows != e.Rows || dst.Cols != e.Cols {
		panic("cmath: MulExpInto shape mismatch")
	}
	n := e.Rows
	if n == 3 {
		mul3((*[9]complex128)(dst.Data), (*[9]complex128)(e.Data), (*[9]complex128)(b.Data))
		return
	}
	for r := 0; r < n; r++ {
		crow, erow := dst.Data[r*n:(r+1)*n], e.Data[r*n:(r+1)*n]
		clear(crow)
		for _, k := range w.bl.of[r] {
			ev := erow[k]
			for j, bv := range b.Data[k*n : (k+1)*n] {
				crow[j] += ev * bv
			}
		}
	}
}

// mul3 computes c = a·b for 3×3 matrices. c must not alias a or b.
func mul3(c, a, b *[9]complex128) {
	for i := 0; i < 9; i += 3 {
		a0, a1, a2 := a[i], a[i+1], a[i+2]
		for j := 0; j < 3; j++ {
			c[i+j] = dot3(a0, a1, a2, b, j)
		}
	}
}

// dot3 returns row (a0, a1, a2) times column j of the 3×3 matrix b, summed
// in ascending k from +0.
func dot3(a0, a1, a2 complex128, b *[9]complex128, j int) complex128 {
	var s complex128
	s += a0 * b[j]
	s += a1 * b[3+j]
	s += a2 * b[6+j]
	return s
}

// blocks partitions the indices of a square matrix into the connected
// components of its nonzero pattern: i and j share a block when m[i][j] or
// m[j][i] is nonzero, or through a chain of such entries. Every power of m,
// and so every power series in m, is zero outside the blocks.
type blocks struct {
	parent []int
	idx    []int   // the indices grouped by block, ascending within each
	list   [][]int // the blocks, as subslices of idx
	of     [][]int // of[i]: the block holding i
}

func (b *blocks) build(m *Matrix) {
	n := m.Rows
	if len(b.parent) != n {
		b.parent = make([]int, n)
		b.idx = make([]int, n)
		b.of = make([][]int, n)
	}
	for i := range b.parent {
		b.parent[i] = i
	}
	for i := 0; i < n; i++ {
		for j, v := range m.Data[i*n : (i+1)*n] {
			if v != 0 && i != j {
				// Each block's root is its smallest index.
				ri, rj := b.root(i), b.root(j)
				b.parent[max(ri, rj)] = min(ri, rj)
			}
		}
	}
	b.list = b.list[:0]
	p := 0
	for r := 0; r < n; r++ {
		if b.root(r) != r {
			continue
		}
		lo := p
		for i := r; i < n; i++ {
			if b.root(i) == r {
				b.idx[p] = i
				p++
			}
		}
		c := b.idx[lo:p]
		b.list = append(b.list, c)
		for _, i := range c {
			b.of[i] = c
		}
	}
}

func (b *blocks) root(i int) int {
	for b.parent[i] != i {
		i = b.parent[i]
	}
	return i
}
