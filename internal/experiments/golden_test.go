package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestGoldenReportDigests pins the report bytes of the experiments whose
// numbers come from Hamiltonian simulation (the gate-error models on the
// cmath/ham propagator path). The reports round their numbers, so the exact
// model bits are pinned separately by gateerror's TestGoldenGateErrorBits.
func TestGoldenReportDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pins are amd64 bits; other architectures may fuse multiply-adds (DESIGN.md, Propagator kernels)")
	}
	want := map[string]string{
		"table1":    "871b23a2e4b7c256b731b4b02b9e73d869709dca7c2d691db700f3232e549584",
		"fig14":     "7187a83c3f82ca2ffa9db4500bf309ed5a01bc4564ab099603dfee49cf3cb946",
		"ablations": "46f34ac0c914347c3b42cdd35a8dfc403a6d5c23c1bf10decbe0de241c2e7a15",
	}
	for id, digest := range want {
		s, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(s))
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: report sha256 %s, want %s\n%s", id, got, digest, s)
		}
	}
}
