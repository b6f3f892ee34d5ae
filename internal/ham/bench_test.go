package ham

import (
	"math"
	"testing"

	"qisim/internal/cmath"
	"qisim/internal/pulse"
)

// Layer benchmarks for one propagator evolution as the gate-error models run
// it: a 25 ns cosine single-qubit pulse (62 samples of 3×3) and a 50 ns
// flat-top CZ flux pulse (125 samples of 9×9, about a third of them the
// repeated hold sample), both at 2.5 GS/s.

func benchEvolve(b *testing.B, hs []*cmath.Matrix, ts float64) {
	var w EvolveWorkspace
	dst := cmath.NewMatrix(hs[0].Rows, hs[0].Cols)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.EvolveSamplesInto(dst, hs, ts)
	}
}

func BenchmarkEvolveSamplesCMOS1Q(b *testing.B) {
	const n, gate = 62, 25e-9
	d := NewDrivenTransmon(3, 0, 2*math.Pi*-330e6, 2*math.Pi*20e6)
	hs := make([]*cmath.Matrix, n)
	for k, a := range pulse.Samples(pulse.CosineEnvelope{}, n, gate) {
		hs[k] = d.Hamiltonian(a, 0.05*a)
	}
	benchEvolve(b, hs, gate/n)
}

func BenchmarkEvolveSamplesCZ(b *testing.B) {
	const n, gate = 125, 50e-9
	alpha := 2 * math.Pi * -300e6
	idle := 2 * math.Pi * 800e6
	c := NewCoupledTransmons(3, alpha, alpha, 2*math.Pi*10e6, idle)
	hs := make([]*cmath.Matrix, n)
	for k, a := range pulse.Samples(pulse.FlatTopEnvelope{RampFrac: 0.14}, n, gate) {
		hs[k] = c.Hamiltonian(idle + (c.ResonanceDetuning()-idle)*a)
	}
	benchEvolve(b, hs, gate/n)
}
