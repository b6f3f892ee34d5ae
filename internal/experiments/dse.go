package experiments

import (
	"context"
	"fmt"
	"strings"

	"qisim/internal/dse"
	"qisim/internal/microarch"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
)

// DSESweepGrid is the Fig. 17 CMOS-vs-ERSFQ design-space sweep: the two
// long-term endpoint designs crossed with code distance and an
// extra-gate-error log sweep. Distance is a real trade-off axis (higher
// distance suppresses logical error but burns qubits and power), so the
// frontier keeps points from several distances rather than collapsing to
// a single winner. The grid is shared by the "dse" experiment, the
// service end-to-end test and the golden frontier pin, so all three
// exercise the same points.
func DSESweepGrid() dse.Grid {
	return dse.Grid{Axes: []dse.Axis{
		{Name: "design", Values: []any{"4K-CMOS-advanced-opt67", "ERSFQ-opt8"}},
		{Name: "distance", Values: []any{11, 17, 23}},
		{Name: "extra_gate_error", LogRange: &dse.LogRange{From: 1e-6, To: 1e-3, Points: 8}},
	}}
}

// DSEObjectives is the default three-way trade-off the service sweeps:
// scale up, power down, logical error down.
func DSEObjectives() []dse.Objective {
	return []dse.Objective{
		{Metric: scalability.MetricMaxQubits, Goal: dse.Max},
		{Metric: scalability.MetricPower4K, Goal: dse.Min},
		{Metric: scalability.MetricLogicalError, Goal: dse.Min},
	}
}

// DSEResult carries the deterministic sweep outcome plus its canonical
// serialisation — the bytes the golden-frontier pin hashes.
type DSEResult struct {
	Outcome   dse.Outcome
	Canonical []byte
	Report    string
}

// DSE runs the Fig. 17 CMOS-vs-ERSFQ sweep through the dse layer directly
// (no service, no cache): wave-based, pruned, committed-prefix
// deterministic. The outcome is byte-identical to what a dse.sweep job over
// the same grid reports in its result envelope.
func DSE() (DSEResult, error) {
	grid, objs := DSESweepGrid(), DSEObjectives()
	pol := dse.Policy{Wave: 8, Prune: true}
	bound := func(p dse.Point) map[string]float64 {
		d, extra, opt, err := dsePointArgs(p)
		if err != nil {
			return nil
		}
		return scalability.PointBound(d, extra, opt)
	}
	eval := func(_ context.Context, pts []dse.Point) ([]map[string]float64, error) {
		out := make([]map[string]float64, len(pts))
		for i, p := range pts {
			d, extra, opt, err := dsePointArgs(p)
			if err != nil {
				return nil, err
			}
			if out[i], err = scalability.AnalyzePointChecked(d, extra, opt); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	outcome, err := dse.RunSweep(context.Background(), grid, objs, pol, bound, eval, nil)
	if err != nil {
		return DSEResult{}, err
	}
	canon, err := rescache.CanonicalJSON(outcome)
	if err != nil {
		return DSEResult{}, err
	}

	var b strings.Builder
	b.WriteString("== DSE — Fig. 17 CMOS-vs-ERSFQ Pareto sweep ==\n")
	fmt.Fprintf(&b, "grid %d points, %d waves: evaluated %d, pruned %d, frontier %d\n",
		outcome.GridSize, outcome.Waves, outcome.Evaluated, outcome.Pruned, len(outcome.Frontier.Points))
	fmt.Fprintf(&b, "%-24s %4s %14s %12s %12s %12s\n", "design", "d", "extra error", "max qubits", "4K power W", "logical err")
	for _, c := range outcome.Frontier.Points {
		design, _ := c.Params["design"].(string)
		dist, _ := c.Params["distance"].(float64)
		extra, _ := c.Params["extra_gate_error"].(float64)
		fmt.Fprintf(&b, "%-24s %4.0f %14.3g %12.0f %12.4g %12.3g\n",
			design, dist, extra,
			c.Metrics[scalability.MetricMaxQubits],
			c.Metrics[scalability.MetricPower4K],
			c.Metrics[scalability.MetricLogicalError])
	}
	b.WriteString("objectives: max max_qubits, min power_4k_w, min logical_error\n")
	if len(outcome.Frontier.Points) == 1 {
		b.WriteString("ERSFQ-opt8 at d=23 and the lowest extra error dominates the whole grid —\n" +
			"the paper's Fig. 17 conclusion (ERSFQ 82,413 vs advanced CMOS 63,883 qubits)\n" +
			"restated as Pareto dominance.\n")
	}
	return DSEResult{Outcome: outcome, Canonical: canon, Report: b.String()}, nil
}

// dsePointArgs resolves one grid point's design, extra gate error and
// per-point analysis options (code distance).
func dsePointArgs(p dse.Point) (microarch.Design, float64, scalability.Options, error) {
	name, _ := p.Coords["design"].(string)
	extra, _ := p.Coords["extra_gate_error"].(float64)
	opt := scalability.DefaultOptions()
	if dist, ok := p.Coords["distance"].(float64); ok {
		opt.Distance = int(dist)
	}
	if d, ok := microarch.DesignByName(name); ok {
		return d, extra, opt, nil
	}
	return microarch.Design{}, 0, opt, simerr.Invalidf("experiments: unknown design %q", name)
}
