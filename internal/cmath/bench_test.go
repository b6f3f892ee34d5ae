package cmath_test

import (
	"math"
	"testing"

	"qisim/internal/cmath"
	"qisim/internal/ham"
)

// Layer benchmarks for the propagator kernels at the sizes the gate-error
// models run: one DAC sample (0.4 ns at 2.5 GS/s) of the 3×3 driven-transmon
// generator and of the 9×9 coupled-transmon CZ generator, -i·ts·H, and
// products of their propagators.

const sampleTime = 0.4e-9

func drivenGenerator() *cmath.Matrix {
	d := ham.NewDrivenTransmon(3, 2*math.Pi*1e6, 2*math.Pi*-330e6, 2*math.Pi*20e6)
	return cmath.Scale(complex(0, -sampleTime), d.Hamiltonian(0.7, 0.1))
}

func czGenerator() *cmath.Matrix {
	alpha := 2 * math.Pi * -300e6
	c := ham.NewCoupledTransmons(3, alpha, alpha, 2*math.Pi*10e6, 2*math.Pi*800e6)
	return cmath.Scale(complex(0, -sampleTime), c.Hamiltonian(c.ResonanceDetuning()))
}

func benchExpm(b *testing.B, gen *cmath.Matrix) {
	var w cmath.ExpmWorkspace
	dst := cmath.NewMatrix(gen.Rows, gen.Cols)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.ExpmInto(dst, gen)
	}
}

func BenchmarkExpm3(b *testing.B) { benchExpm(b, drivenGenerator()) }
func BenchmarkExpm9(b *testing.B) { benchExpm(b, czGenerator()) }

// benchMul times one propagator step u·u, with u = exp(gen), through the
// general MulInto and through the workspace's structure-aware MulExpInto.
func benchMul(b *testing.B, gen *cmath.Matrix) {
	var w cmath.ExpmWorkspace
	u := cmath.NewMatrix(gen.Rows, gen.Cols)
	w.ExpmInto(u, gen)
	dst := cmath.NewMatrix(u.Rows, u.Cols)
	b.Run("general", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cmath.MulInto(dst, u, u)
		}
	})
	b.Run("propagator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.MulExpInto(dst, u)
		}
	})
}

func BenchmarkMul3(b *testing.B) { benchMul(b, drivenGenerator()) }
func BenchmarkMul9(b *testing.B) { benchMul(b, czGenerator()) }
