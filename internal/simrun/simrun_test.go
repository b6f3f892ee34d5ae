package simrun

import (
	"context"
	"errors"
	"testing"

	"qisim/internal/simerr"
)

func TestGuardFullBudget(t *testing.T) {
	g, err := NewGuard(context.Background(), 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; g.Continue(n); n++ {
	}
	st := g.Status(n)
	if n != 1000 || st.Truncated || st.Converged || st.StopReason != StopCompleted {
		t.Fatalf("full budget: n=%d status=%+v", n, st)
	}
	if st.Err() != nil {
		t.Fatalf("completed run must not report an error, got %v", st.Err())
	}
}

func TestGuardCancellationYieldsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, err := NewGuard(ctx, 1_000_000, Options{CheckEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; g.Continue(n); n++ {
		if n == 5000 {
			cancel()
		}
	}
	st := g.Status(n)
	if !st.Truncated || st.StopReason != StopCanceled {
		t.Fatalf("want truncated/canceled, got %+v", st)
	}
	if st.Completed <= 5000 || st.Completed >= 6000 {
		t.Fatalf("cancellation should stop within one CheckEvery window, completed %d", st.Completed)
	}
	if !errors.Is(st.Err(), simerr.ErrInterrupted) {
		t.Fatalf("truncated status must map to ErrInterrupted, got %v", st.Err())
	}
}

func TestStatusErrMessageNamesNoUnit(t *testing.T) {
	// Guarded loops count shots, design points or sweep steps, so the
	// message must not claim a unit.
	st := Status{Requested: 3, Completed: 1, Truncated: true, StopReason: StopDeadline}
	want := "simrun: run truncated (deadline) with 1 of 3 done: interrupted"
	if err := st.Err(); err == nil || err.Error() != want {
		t.Fatalf("Err() = %v, want %q", err, want)
	}
}

func TestGuardConvergenceEarlyExit(t *testing.T) {
	g, err := NewGuard(nil, 1_000_000, Options{TargetRelStdErr: 0.05, MinShots: 2000, CheckEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated failure rate of 50%: rel-SE = sqrt(0.25/n)/0.5 = 1/sqrt(n),
	// below 0.05 at n = 400 — but the floor holds until 2000.
	n, fails := 0, 0
	for ; g.ContinueBinomial(n, fails); n++ {
		if n%2 == 0 {
			fails++
		}
	}
	st := g.Status(n)
	if !st.Converged || st.StopReason != StopConverged {
		t.Fatalf("want converged, got %+v", st)
	}
	if st.Completed < 2000 {
		t.Fatalf("convergence fired below the MinShots floor: %d", st.Completed)
	}
	if st.Completed > 3000 {
		t.Fatalf("convergence should fire shortly after the floor, got %d", st.Completed)
	}
}

func TestGuardZeroEventsNeverConverges(t *testing.T) {
	g, err := NewGuard(nil, 50_000, Options{TargetRelStdErr: 0.1, MinShots: 100, CheckEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; g.ContinueBinomial(n, 0); n++ {
	}
	if st := g.Status(n); st.Converged || st.Completed != 50_000 {
		t.Fatalf("zero-event run must use the full budget, got %+v", st)
	}
}

func TestGuardMaxShotsCap(t *testing.T) {
	g, err := NewGuard(nil, 10_000, Options{MaxShots: 500})
	if err != nil {
		t.Fatal(err)
	}
	if g.Budget() != 500 {
		t.Fatalf("budget not capped: %d", g.Budget())
	}
	n := 0
	for ; g.Continue(n); n++ {
	}
	if st := g.Status(n); st.Completed != 500 || st.Truncated {
		t.Fatalf("capped run should complete at the cap, got %+v", st)
	}
}

func TestGuardInfeasibleBudget(t *testing.T) {
	_, err := NewGuard(nil, 100, Options{MinShots: 1000})
	if !errors.Is(err, simerr.ErrBudgetInfeasible) {
		t.Fatalf("want ErrBudgetInfeasible, got %v", err)
	}
	_, err = NewGuard(nil, 100, Options{MaxShots: 50, MinShots: 80})
	if !errors.Is(err, simerr.ErrBudgetInfeasible) {
		t.Fatalf("MaxShots cap must participate in feasibility, got %v", err)
	}
}

func TestGuardInvalidOptions(t *testing.T) {
	cases := []struct {
		shots int
		opt   Options
	}{
		{0, Options{}},
		{-5, Options{}},
		{100, Options{MaxShots: -1}},
		{100, Options{TargetRelStdErr: -0.1}},
	}
	for _, c := range cases {
		if _, err := NewGuard(nil, c.shots, c.opt); !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("shots=%d opt=%+v: want ErrInvalidConfig, got %v", c.shots, c.opt, err)
		}
	}
}

func TestGuardDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done before the loop starts
	g, err := NewGuard(ctx, 1_000_000, Options{CheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; g.Continue(n); n++ {
	}
	st := g.Status(n)
	if !st.Truncated {
		t.Fatalf("pre-canceled context must truncate, got %+v", st)
	}
}
