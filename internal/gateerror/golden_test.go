package gateerror

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// goldenBits pins the exact float64 bits of every gate-error model output the
// paper reproduction reports (Table 1, Table 2, Fig. 14). The other tests in
// this package check physics bands; this one catches any change in a single
// floating-point operation anywhere on the propagator path (cmath and ham
// kernels included). A deliberate change to a model's arithmetic must update
// these constants in the same commit and say why.
var goldenBits = map[string]uint64{
	"CMOS1Q.Error":            0x3eabc731d8d80000,
	"CMOS1Q.CoherentError":    0x3e4cef7fb4000000,
	"CMOS1Q.Leakage":          0x3e43011b121f6e80,
	"Fig14.bits=3":            0x3f4bee8a9212c000,
	"Fig14.bits=4":            0x3f4932462c7c1400,
	"Fig14.bits=5":            0x3ef4b4477d6c0000,
	"Fig14.bits=6":            0x3eb8131984e80000,
	"Fig14.bits=7":            0x3e9c4d822d000000,
	"Fig14.bits=8":            0x3e84b7d4d6000000,
	"Fig14.bits=9":            0x3e57c512c8000000,
	"Fig14.bits=10":           0x3e6590c903000000,
	"Fig14.bits=12":           0x3e4352e6ac000000,
	"Fig14.bits=14":           0x3e4cef7fb4000000,
	"CZ.Error":                0x3f49e1750ba92980,
	"CZ.CondPhase":            0xc00921b4b5a455f0,
	"CZ(SFQ).Error":           0x3f523c0628120580,
	"CZ(SFQ).CondPhase":       0xc0091f308824079f,
	"UnitStepCZ.Error":        0x3fba02d45e4a0d18,
	"UnitStepCZ.CondPhase":    0xc0044c90033347b0,
	"SFQ1Q(validation).Error": 0x3ef0353265fae253,
}

func goldenValues() map[string]float64 {
	got := map[string]float64{}
	r := CMOS1QError(DefaultCMOS1QConfig())
	got["CMOS1Q.Error"], got["CMOS1Q.CoherentError"], got["CMOS1Q.Leakage"] = r.Error, r.CoherentError, r.Leakage

	// Fig. 14's sweep: quantisation only (no analog noise), ten precisions.
	cfg := DefaultCMOS1QConfig()
	cfg.SNRdB = 0
	for _, bits := range []int{3, 4, 5, 6, 7, 8, 9, 10, 12, 14} {
		cfg.Bits = bits
		got[fmt.Sprintf("Fig14.bits=%d", bits)] = CMOS1QError(cfg).Error
	}

	cz := CZError(DefaultCZConfig())
	got["CZ.Error"], got["CZ.CondPhase"] = cz.Error, cz.CondPhase
	sfq := CZError(DefaultSFQCZConfig())
	got["CZ(SFQ).Error"], got["CZ(SFQ).CondPhase"] = sfq.Error, sfq.CondPhase
	us := UnitStepCZError()
	got["UnitStepCZ.Error"], got["UnitStepCZ.CondPhase"] = us.Error, us.CondPhase
	got["SFQ1Q(validation).Error"] = SFQ1QError(ValidationSFQ1QConfig()).Error
	return got
}

func TestGoldenGateErrorBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pins are amd64 bits; other architectures may fuse multiply-adds (DESIGN.md, Propagator kernels)")
	}
	got := goldenValues()
	for name, want := range goldenBits {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s: no such model output", name)
			continue
		}
		if b := math.Float64bits(v); b != want {
			t.Errorf("%s = %v (bits %#016x), want bits %#016x", name, v, b, want)
		}
	}
	if len(got) != len(goldenBits) {
		t.Errorf("computed %d outputs, pinned %d", len(got), len(goldenBits))
	}
}
