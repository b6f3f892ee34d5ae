// Package cmath provides dense complex linear algebra for the Hamiltonian
// simulations that underpin QIsim's gate- and readout-error models.
//
// The package is deliberately small: square and rectangular dense matrices of
// complex128, the handful of operations quantum dynamics needs (products,
// Kronecker products, daggers, matrix exponentials), and the fidelity measures
// used to score noisy unitaries against ideal gates. Everything is stdlib-only
// and allocation-conscious so the error models can run inside test suites and
// benchmarks without external dependencies.
package cmath

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmath: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		panic("cmath: FromRows requires at least one row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("cmath: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// IsSquare reports whether m has equal row and column counts.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	mustSameShape(a, b, "Add")
	c := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns a-b.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape(a, b, "Sub")
	c := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s*m.
func Scale(s complex128, m *Matrix) *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		c.Data[i] = s * v
	}
	return c
}

// AddInPlace accumulates s*b into a.
func AddInPlace(a *Matrix, s complex128, b *Matrix) {
	mustSameShape(a, b, "AddInPlace")
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmath: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	MulInto(c, a, b)
	return c
}

// MulInto computes dst = a·b, reusing dst's storage. dst must not alias a or
// b. Each output element sums its k-terms in ascending order into an
// accumulator that starts at +0; zero entries of a are skipped, which drops
// only exact ±0 terms, so results equal the textbook triple loop bit for bit
// (see kernel_equiv_test.go).
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("cmath: MulInto shape mismatch")
	}
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		crow := dst.Data[i*bc : (i+1)*bc]
		clear(crow)
		for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if av == 0 {
				continue
			}
			for j, bv := range b.Data[k*bc : (k+1)*bc] {
				crow[j] += av * bv
			}
		}
	}
}

// Dagger returns the conjugate transpose of m.
func Dagger(m *Matrix) *Matrix {
	d := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			d.Data[j*d.Cols+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return d
}

// Kron returns the Kronecker product a⊗b.
func Kron(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows*b.Rows, a.Cols*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.Data[i*a.Cols+j]
			if av == 0 {
				continue
			}
			for k := 0; k < b.Rows; k++ {
				for l := 0; l < b.Cols; l++ {
					c.Data[(i*b.Rows+k)*c.Cols+(j*b.Cols+l)] = av * b.Data[k*b.Cols+l]
				}
			}
		}
	}
	return c
}

// Trace returns the trace of a square matrix.
func Trace(m *Matrix) complex128 {
	if !m.IsSquare() {
		panic("cmath: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// MaxAbs returns the largest element magnitude, used for exponential scaling.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// OneNorm returns the maximum absolute column sum.
func (m *Matrix) OneNorm() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += cmplx.Abs(m.Data[i*m.Cols+j])
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(sum |a_ij|^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// ApplyKron computes (a⊗b)·v without materializing the Kronecker product.
// len(v) must equal a.Cols*b.Cols; the result has length a.Rows*b.Rows.
// Each output element accumulates its column terms in the same ascending
// order as Kron(a, b).ApplyTo(v), so the result is bit-identical to the
// materialized product (zero rows of a are skipped, which only drops exact
// +0 contributions).
func ApplyKron(a, b *Matrix, v []complex128) []complex128 {
	out := make([]complex128, a.Rows*b.Rows)
	ApplyKronInto(out, a, b, v)
	return out
}

// ApplyKronInto is ApplyKron writing into dst, which must have length
// a.Rows*b.Rows and must not alias v.
func ApplyKronInto(dst []complex128, a, b *Matrix, v []complex128) {
	if len(v) != a.Cols*b.Cols {
		panic("cmath: ApplyKron input length mismatch")
	}
	if len(dst) != a.Rows*b.Rows {
		panic("cmath: ApplyKron output length mismatch")
	}
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k := 0; k < b.Rows; k++ {
			brow := b.Data[k*bc : (k+1)*bc]
			var s complex128
			for j, av := range arow {
				if av == 0 {
					continue
				}
				vseg := v[j*bc : (j+1)*bc]
				for l, bv := range brow {
					// (av*bv)*v — same product grouping as the
					// materialized Kron entry times v.
					s += av * bv * vseg[l]
				}
			}
			dst[i*b.Rows+k] = s
		}
	}
}

// ApplyTo computes m·v for a vector v.
func (m *Matrix) ApplyTo(v []complex128) []complex128 {
	return m.ApplyToInto(make([]complex128, m.Rows), v)
}

// ApplyToInto computes m·v into dst (len m.Rows) and returns dst, with the
// same accumulation order as ApplyTo. dst must not alias v.
func (m *Matrix) ApplyToInto(dst, v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic("cmath: ApplyTo length mismatch")
	}
	if len(dst) != m.Rows {
		panic("cmath: ApplyToInto destination length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return dst
}

// IsUnitary reports whether m†m ≈ I within tol (Frobenius norm of deviation).
func IsUnitary(m *Matrix, tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	p := Mul(Dagger(m), m)
	dev := Sub(p, Identity(m.Rows))
	return dev.FrobeniusNorm() < tol
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%+.4f%+.4fi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func mustSameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("cmath: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
