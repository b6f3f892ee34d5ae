// Package scalability is QIsim's headline analysis (Section 6): for a QCI
// design point it combines the per-qubit per-stage power model with the
// refrigerator budgets and the logical-error target model, and reports the
// maximum supportable physical-qubit count together with the binding
// constraint — reproducing Figs. 12, 13 and 17.
package scalability

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"qisim/internal/cryo"
	"qisim/internal/microarch"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/wiring"
)

// Constraint identifies what limits a design's scale.
type Constraint string

const (
	Power4K    Constraint = "4K power"
	Power70K   Constraint = "70K power"
	Power100mK Constraint = "100mK power"
	Power20mK  Constraint = "20mK power"
	LogicalErr Constraint = "logical error"
	Unbounded  Constraint = "unbounded"
)

func stageConstraint(s wiring.Stage) Constraint {
	switch s {
	case wiring.Stage4K:
		return Power4K
	case wiring.Stage70K:
		return Power70K
	case wiring.Stage100mK:
		return Power100mK
	default:
		return Power20mK
	}
}

// Analysis is the scalability verdict for one design.
type Analysis struct {
	Design microarch.Design
	// PerQubit is the per-qubit per-stage power.
	PerQubit map[wiring.Stage]float64
	// StageLimit is the power-limited qubit count per stage.
	StageLimit map[wiring.Stage]float64
	// LogicalError is the achieved p_L at d = 23.
	LogicalError float64
	// ErrorLimit is the error-limited qubit count (target-model crossing).
	ErrorLimit float64
	// MaxQubits is min over all limits; Binding names the constraint.
	MaxQubits float64
	Binding   Constraint
	// MeetsNearTerm reports whether the design satisfies the near-term
	// (1,152-qubit, Jellium N=2) logical-error target.
	MeetsNearTerm bool
}

// Options configure the analysis.
type Options struct {
	Budgets  cryo.Budgets
	Targets  surface.TargetModel
	Distance int
}

// DefaultOptions returns the Table 2 budgets, Jellium targets and d = 23.
func DefaultOptions() Options {
	return Options{Budgets: cryo.DefaultBudgets(), Targets: surface.DefaultTargets(), Distance: 23}
}

// ExtendedOptions adds the 30 W 70 K stage of the Section 7.3 extension, for
// designs that offload components there.
func ExtendedOptions() Options {
	opt := DefaultOptions()
	opt.Budgets = cryo.ExtendedBudgets()
	return opt
}

// Analyze evaluates one design point.
func Analyze(d microarch.Design, opt Options) Analysis {
	a, _ := analyze(d, 0, opt)
	return a
}

// analyze is the one scalability core: the power-limited qubit count of
// every budgeted stage, then the logical-error crossing with extraGateError
// added to every gate. It also returns the design's per-qubit power, which
// covers stages the budgets leave out.
func analyze(d microarch.Design, extraGateError float64, opt Options) (Analysis, microarch.PowerBreakdown) {
	a, pb := powerLimit(d, opt)
	a.LogicalError = d.LogicalError(extraGateError)
	a.ErrorLimit = opt.Targets.MaxPhysicalQubits(a.LogicalError, opt.Distance)
	if a.ErrorLimit < a.MaxQubits {
		a.MaxQubits = a.ErrorLimit
		a.Binding = LogicalErr
	}
	near := opt.Targets.Target(1) // one logical qubit, Jellium N=2 floor
	a.MeetsNearTerm = a.LogicalError <= near
	return a, pb
}

// powerLimit is the power half of analyze: per-stage power, per-stage qubit
// limits, and MaxQubits/Binding over the stages alone.
func powerLimit(d microarch.Design, opt Options) (Analysis, microarch.PowerBreakdown) {
	a := Analysis{
		Design:     d,
		PerQubit:   map[wiring.Stage]float64{},
		StageLimit: map[wiring.Stage]float64{},
		MaxQubits:  math.Inf(1),
		Binding:    Unbounded,
	}
	pb := d.PerQubitPower()
	for st, budget := range opt.Budgets {
		w := pb.StageW[st]
		a.PerQubit[st] = w
		if w <= 0 {
			a.StageLimit[st] = math.Inf(1)
			continue
		}
		lim := budget / w
		a.StageLimit[st] = lim
		if lim < a.MaxQubits {
			a.MaxQubits = lim
			a.Binding = stageConstraint(st)
		}
	}
	return a, pb
}

// checkSound rejects an analysis with a NaN leaking out of the power or
// error models.
func checkSound(a Analysis) error {
	if math.IsNaN(a.LogicalError) || math.IsNaN(a.MaxQubits) {
		return simerr.Numericalf("scalability: NaN in analysis of %q (p_L %v, max qubits %v)",
			a.Design.Name, a.LogicalError, a.MaxQubits)
	}
	return nil
}

func checkOptions(opt Options) error {
	if opt.Distance < 3 || opt.Distance%2 == 0 {
		return simerr.Invalidf("scalability: distance must be odd and >= 3, got %d", opt.Distance)
	}
	if len(opt.Budgets) == 0 {
		return simerr.Invalidf("scalability: no refrigerator budgets configured")
	}
	for st, w := range opt.Budgets {
		if w <= 0 || math.IsNaN(w) {
			return simerr.Invalidf("scalability: budget for stage %s must be positive, got %v", st, w)
		}
	}
	return nil
}

// AnalyzeDesigns evaluates designs in order, after validating the options
// once. Each analysis is checked for NaN. The context is polled before every
// design after the first: on cancellation or deadline it returns the
// analyses completed so far with Status.Truncated set.
func AnalyzeDesigns(ctx context.Context, designs []microarch.Design, opt Options) ([]Analysis, simrun.Status, error) {
	if err := checkOptions(opt); err != nil {
		return nil, simrun.Status{}, err
	}
	if len(designs) == 0 {
		return nil, simrun.Status{}, simerr.Invalidf("scalability: no designs to analyze")
	}
	g, err := simrun.NewGuard(ctx, len(designs), simrun.Options{CheckEvery: 1})
	if err != nil {
		return nil, simrun.Status{}, err
	}
	out := make([]Analysis, 0, len(designs))
	for i := 0; g.Continue(i); i++ {
		a := Analyze(designs[i], opt)
		if err := checkSound(a); err != nil {
			return nil, simrun.Status{}, err
		}
		out = append(out, a)
	}
	return out, g.Status(len(out)), nil
}

// CurvePoint is one sample of a Fig. 12/13/17-style sweep.
type CurvePoint struct {
	Qubits int `json:"qubits"`
	// Utilization is power/budget per stage at this scale.
	Utilization map[wiring.Stage]float64 `json:"utilization"`
	// LogicalError and Target at this scale (target falls as the algorithm
	// grows with the machine).
	LogicalError float64 `json:"logical_error"`
	Target       float64 `json:"target"`
	Feasible     bool    `json:"feasible"`
}

// SweepResult is a qubit-count sweep: Points holds the curve samples
// completed before cancellation (all of them when Status.Truncated is
// false).
type SweepResult struct {
	Design string        `json:"design"`
	Points []CurvePoint  `json:"points"`
	Status simrun.Status `json:"status"`
}

// SweepCtx samples a design across qubit counts, producing the data behind
// the scalability figures. The context is polled as AnalyzeDesigns polls
// it: on cancellation it returns the points computed so far, flagged
// Truncated, so an interrupted design-space exploration keeps the samples
// it already paid for.
func SweepCtx(ctx context.Context, d microarch.Design, qubitCounts []int, opt Options) (SweepResult, error) {
	if err := checkOptions(opt); err != nil {
		return SweepResult{}, err
	}
	if len(qubitCounts) == 0 {
		return SweepResult{}, simerr.Invalidf("scalability: sweep needs at least one qubit count")
	}
	for _, n := range qubitCounts {
		if n <= 0 {
			return SweepResult{}, simerr.Invalidf("scalability: qubit count must be positive, got %d", n)
		}
	}
	g, err := simrun.NewGuard(ctx, len(qubitCounts), simrun.Options{CheckEvery: 1})
	if err != nil {
		return SweepResult{}, err
	}
	pb := d.PerQubitPower()
	pl := d.LogicalError(0)
	perPatch := float64(surface.PhysicalQubitsPerPatch(opt.Distance))
	points := make([]CurvePoint, 0, len(qubitCounts))
	for i := 0; g.Continue(i); i++ {
		n := qubitCounts[i]
		cp := CurvePoint{Qubits: n, Utilization: map[wiring.Stage]float64{}, LogicalError: pl, Feasible: true}
		for st, budget := range opt.Budgets {
			u := pb.StageW[st] * float64(n) / budget
			cp.Utilization[st] = u
			if u > 1 {
				cp.Feasible = false
			}
		}
		cp.Target = opt.Targets.Target(float64(n) / perPatch)
		if pl > cp.Target {
			cp.Feasible = false
		}
		points = append(points, cp)
	}
	return SweepResult{Design: d.Name, Points: points, Status: g.Status(len(points))}, nil
}

// Table renders a set of analyses as an aligned text table.
func Table(as []Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %12s %12s %12s %12s %12s %10s %-14s\n",
		"design", "4K W/qubit", "100mK", "20mK", "p_L(d=23)", "err-limit", "max-qubits", "binding")
	for _, a := range as {
		fmt.Fprintf(&b, "%-26s %12.3g %12.3g %12.3g %12.3g %12.0f %10.0f %-14s\n",
			a.Design.Name,
			a.PerQubit[wiring.Stage4K], a.PerQubit[wiring.Stage100mK], a.PerQubit[wiring.Stage20mK],
			a.LogicalError, capInf(a.ErrorLimit), capInf(a.MaxQubits), a.Binding)
	}
	return b.String()
}

func capInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

// SortByMax orders analyses by achievable scale (descending).
func SortByMax(as []Analysis) {
	sort.Slice(as, func(i, j int) bool { return as[i].MaxQubits > as[j].MaxQubits })
}
