package surface

import (
	"context"
	"testing"

	"qisim/internal/simrun"
)

// mcLogical, mcUnionFind and mcPheno run the decoder Monte-Carlos with
// default options and fail the test on an error.
func mcLogical(t *testing.T, d int, p float64, shots int, seed int64) DecoderResult {
	t.Helper()
	r, err := MonteCarloLogicalErrorCtx(context.Background(), d, p, shots, seed, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mcUnionFind(t *testing.T, d int, p float64, shots int, seed int64) DecoderResult {
	t.Helper()
	r, err := MonteCarloUnionFindCtx(context.Background(), d, p, shots, seed, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mcPheno(t *testing.T, d int, p, q float64, rounds, shots int, seed int64) DecoderResult {
	t.Helper()
	r, err := MonteCarloPhenomenologicalCtx(context.Background(), d, p, q, rounds, shots, seed, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}
