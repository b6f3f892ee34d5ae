package qisim_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"qisim/internal/microarch"
	"qisim/internal/pauli"
	"qisim/internal/readout"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
)

// TestMCEntryPointsRejectWithoutPanic feeds every Monte-Carlo entry point
// (and the scalability sweep) the inputs that are configuration faults — an
// even distance, a negative shot budget, a NaN probability, an empty
// channel — and requires a typed ErrInvalidConfig, never a panic.
func TestMCEntryPointsRejectWithoutPanic(t *testing.T) {
	ctx := context.Background()
	var opt simrun.Options
	nan := math.NaN()
	evenSweep := scalability.DefaultOptions()
	evenSweep.Distance = 22
	badRange := readout.DefaultMultiRoundConfig()
	badRange.Range = nan
	badTiming := readout.DefaultTiming()
	badTiming.RoundSamples = 0
	badRate := readout.DefaultTrajectoryConfig()
	badRate.SampleRateHz = nan
	channel := pauli.DecoherenceChannel(20e-6, 122e-6, 118e-6)

	cases := map[string]func() error{
		"surface.MonteCarloLogicalErrorCtx even distance": func() error {
			_, err := surface.MonteCarloLogicalErrorCtx(ctx, 4, 0.01, 100, 1, opt)
			return err
		},
		"surface.MonteCarloLogicalErrorCtx negative shots": func() error {
			_, err := surface.MonteCarloLogicalErrorCtx(ctx, 3, 0.01, -5, 1, opt)
			return err
		},
		"surface.MonteCarloLogicalErrorCtx NaN p": func() error {
			_, err := surface.MonteCarloLogicalErrorCtx(ctx, 3, nan, 100, 1, opt)
			return err
		},
		"surface.MonteCarloUnionFindCtx even distance": func() error {
			_, err := surface.MonteCarloUnionFindCtx(ctx, 2, 0.01, 100, 1, opt)
			return err
		},
		"surface.MonteCarloUnionFindCtx p above 1": func() error {
			_, err := surface.MonteCarloUnionFindCtx(ctx, 3, 1.5, 100, 1, opt)
			return err
		},
		"surface.MonteCarloPhenomenologicalCtx NaN q": func() error {
			_, err := surface.MonteCarloPhenomenologicalCtx(ctx, 3, 0.01, nan, 3, 100, 1, opt)
			return err
		},
		"surface.MonteCarloPhenomenologicalCtx negative shots": func() error {
			_, err := surface.MonteCarloPhenomenologicalCtx(ctx, 3, 0.01, 0.01, 3, -1, 1, opt)
			return err
		},
		"surface.ThresholdEstimateCtx even distance": func() error {
			_, err := surface.ThresholdEstimateCtx(ctx, 6, 100, 1, opt)
			return err
		},
		"surface.PhenomenologicalThresholdCtx even distance": func() error {
			_, err := surface.PhenomenologicalThresholdCtx(ctx, 4, 3, 100, 1, opt)
			return err
		},
		"surface.FitProjection even distance": func() error {
			_, err := surface.FitProjection([]int{3, 4}, []float64{0.01}, 100, 1)
			return err
		},
		"pauli.MonteCarloCtx nil result": func() error {
			_, err := pauli.MonteCarloCtx(ctx, nil, pauli.Config{}, opt)
			return err
		},
		"pauli.TrajectoryAverageFidelityCtx empty channel": func() error {
			_, err := pauli.TrajectoryAverageFidelityCtx(ctx, pauli.KrausChannel{}, 100, 1, opt)
			return err
		},
		"pauli.TrajectoryAverageFidelityCtx negative shots": func() error {
			_, err := pauli.TrajectoryAverageFidelityCtx(ctx, channel, -1, 1, opt)
			return err
		},
		"readout.MultiRoundErrorCtx NaN range": func() error {
			_, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), badRange, opt)
			return err
		},
		"readout.MultiRoundErrorCtx zero round samples": func() error {
			_, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), badTiming, readout.DefaultMultiRoundConfig(), opt)
			return err
		},
		"readout.TrajectoryMCCtx NaN sample rate": func() error {
			_, err := readout.TrajectoryMCCtx(ctx, badRate, readout.DefaultChain(), opt)
			return err
		},
		"scalability.SweepCtx even distance": func() error {
			_, err := scalability.SweepCtx(ctx, microarch.CMOS4KOpt12(), []int{100}, evenSweep)
			return err
		},
		"scalability.SweepCtx negative qubit count": func() error {
			_, err := scalability.SweepCtx(ctx, microarch.CMOS4KOpt12(), []int{-100}, scalability.DefaultOptions())
			return err
		},
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := call(); !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Fatalf("err %v, want ErrInvalidConfig", err)
			}
		})
	}
}
