package ham

import (
	"math"
	"math/rand"
	"testing"

	"qisim/internal/cmath"
)

// This file pins EvolveSamplesInto, which reuses a step's propagator for
// repeated samples and multiplies through the workspace's structure-aware
// product, to evolveRef bit for bit. evolveRef exponentiates every sample
// afresh with cmath.Expm and multiplies with cmath.Mul; cmath's
// kernel_equiv_test.go pins both of those to the textbook kernels.

func evolveRef(hs []*cmath.Matrix, ts float64) *cmath.Matrix {
	u := cmath.Identity(hs[0].Rows)
	for _, hk := range hs {
		uk := cmath.Expm(cmath.Scale(complex(0, -ts), hk))
		u = cmath.Mul(uk, u)
	}
	return u
}

func eqBits(t *testing.T, name string, got, want *cmath.Matrix) {
	t.Helper()
	for i, wv := range want.Data {
		gv := got.Data[i]
		if math.Float64bits(real(gv)) != math.Float64bits(real(wv)) || math.Float64bits(imag(gv)) != math.Float64bits(imag(wv)) {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, gv, wv)
		}
	}
}

// negZeros returns a copy of h with every +0 component flipped to −0: == to
// h, but not the same bits.
func negZeros(h *cmath.Matrix) *cmath.Matrix {
	c := h.Clone()
	neg := math.Copysign(0, -1)
	for i, v := range c.Data {
		re, im := real(v), imag(v)
		if re == 0 {
			re = neg
		}
		if im == 0 {
			im = neg
		}
		c.Data[i] = complex(re, im)
	}
	return c
}

func TestEvolveSamplesMatchesReference(t *testing.T) {
	alpha := 2 * math.Pi * -300e6
	idle := 2 * math.Pi * 800e6
	cz := NewCoupledTransmons(3, alpha, alpha, 2*math.Pi*10e6, idle)
	dt := NewDrivenTransmon(3, 2*math.Pi*1e6, 2*math.Pi*-330e6, 2*math.Pi*20e6)
	rng := rand.New(rand.NewSource(11))

	// Runs of equal samples as flat-top holds and unit steps produce them,
	// with the repeats stored as distinct matrices, some of which differ
	// from their predecessor only in the sign of zeros.
	czRun := []*cmath.Matrix{cz.Hamiltonian(idle)}
	for _, d := range []float64{idle, idle / 2, cz.ResonanceDetuning(), cz.ResonanceDetuning(), cz.ResonanceDetuning(), 0, 0} {
		czRun = append(czRun, cz.Hamiltonian(d))
	}
	czRun = append(czRun, negZeros(czRun[len(czRun)-1]), cz.Hamiltonian(idle))
	dtRun := []*cmath.Matrix{dt.Hamiltonian(0, 0), dt.Hamiltonian(0, 0)}
	for k := 0; k < 6; k++ {
		a := rng.Float64()
		dtRun = append(dtRun, dt.Hamiltonian(a, 0.1*a), dt.Hamiltonian(a, 0.1*a))
	}
	dtRun = append(dtRun, negZeros(dtRun[len(dtRun)-1]), dt.Hamiltonian(1, 0), negZeros(dt.Hamiltonian(1, 0)))

	var w EvolveWorkspace
	for _, c := range []struct {
		name string
		hs   []*cmath.Matrix
		ts   float64
	}{
		{"cz", czRun, 0.4e-9},
		{"driven", dtRun, 0.4e-9},
		{"cz-again", czRun[2:], 0.4e-9},
		{"single", czRun[:1], 2e-9},
	} {
		want := evolveRef(c.hs, c.ts)
		got := cmath.NewMatrix(want.Rows, want.Cols)
		w.EvolveSamplesInto(got, c.hs, c.ts)
		eqBits(t, c.name+"/EvolveSamplesInto", got, want)
		eqBits(t, c.name+"/EvolveSamples", EvolveSamples(c.hs, c.ts), want)
	}
}

func TestEvolveSamplesNonFinitePropagates(t *testing.T) {
	d := NewDrivenTransmon(3, 0, 2*math.Pi*-330e6, 2*math.Pi*20e6)
	hs := []*cmath.Matrix{d.Hamiltonian(1, 0), d.Hamiltonian(1, 0), d.Hamiltonian(1, 0)}
	hs[1].Set(2, 1, complex(math.NaN(), 0))
	if err := cmath.CheckFinite("evolve", EvolveSamples(hs, 0.4e-9)); err == nil {
		t.Fatal("a NaN sample gave a finite propagator")
	}
}
