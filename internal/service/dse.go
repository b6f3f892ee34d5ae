// Design-space exploration endpoints and executors (see DESIGN.md
// "Design-space exploration").
//
// dse.sweep is an ORCHESTRATOR job: its runner expands a parameter grid
// (internal/dse) and fans each wave out as dse.point child jobs through the
// same queue, worker pool and result cache every other kind uses — so
// overlapping sweeps dedupe point evaluations content-addressed, a fleet
// coordinator schedules children like any other work, and a crash recovers
// the parent from the journal, which re-adopts its surviving children by
// key. As waves commit, the runner folds child metrics into a Pareto
// frontier and publishes a "frontier" event per wave on the parent's event
// log — the stream behind GET /v1/jobs/{id}/events.
//
// Determinism: for a fixed grid, objectives, wave size and prune policy the
// final frontier (and the whole result envelope) is byte-identical no
// matter how many workers ran the children, which tenants interleaved, or
// where a crash/recovery split the sweep — prune decisions read only fully
// committed waves (internal/dse's committed-prefix rule) and every child
// result is itself deterministic.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"qisim/internal/dse"
	"qisim/internal/jobs"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// The grid axes a sweep may vary. design is categorical (named designs);
// distance and extra_gate_error are numeric.
const (
	axisDesign         = "design"
	axisDistance       = "distance"
	axisExtraGateError = "extra_gate_error"
)

// ---- dse.point: one grid-point evaluation ----

type dsePointParams struct {
	Design         string  `json:"design"`
	Distance       int     `json:"distance"`
	ExtraGateError float64 `json:"extra_gate_error"`
	Extended       bool    `json:"extended"`
}

// normalizeDSEPoint decodes and defaults dse.point params. The same
// normalization runs for direct submissions and for the children a sweep
// fans out, so both key (and therefore dedupe) identically.
func normalizeDSEPoint(raw json.RawMessage) (dsePointParams, microarch.Design, error) {
	var p dsePointParams
	if err := decodeParams(raw, &p); err != nil {
		return p, microarch.Design{}, err
	}
	if p.Design == "" {
		return p, microarch.Design{}, simerr.Invalidf("service: dse.point needs a design name")
	}
	d, ok := microarch.DesignByName(p.Design)
	if !ok {
		return p, microarch.Design{}, simerr.Invalidf("service: unknown design %q", p.Design)
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	if p.Distance < 3 || p.Distance%2 == 0 {
		return p, microarch.Design{}, simerr.Invalidf("service: distance must be an odd integer >= 3, got %d", p.Distance)
	}
	if math.IsNaN(p.ExtraGateError) || p.ExtraGateError < 0 || p.ExtraGateError > 1 {
		return p, microarch.Design{}, simerr.Invalidf("service: extra_gate_error must be in [0,1], got %v", p.ExtraGateError)
	}
	return p, d, nil
}

func buildDSEPoint(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, d, err := normalizeDSEPoint(raw)
	if err != nil {
		return "", "", nil, err
	}
	// Analyses are deterministic and seedless: seed 0 / shard 0 in the key.
	key, keyed, err := requestKey(jobs.KindDSEPoint, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		// The evaluation is analytic and near-instant, but a cancelled child
		// (a cascading parent cancel, a drain) must still finalize as a
		// Truncated partial — never compute-and-cache under a dead context.
		if ctx.Err() != nil {
			return nil, simrun.Status{Requested: 1, Truncated: true, StopReason: simrun.StopCanceled}, nil
		}
		opt := scalabilityOptions(pp.Distance, pp.Extended)
		m, err := scalability.AnalyzePointChecked(d, pp.ExtraGateError, opt)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		progress(1, 1)
		st := simrun.Status{Requested: 1, Completed: 1, StopReason: simrun.StopCompleted}
		body, err := marshalEnvelope(jobs.KindDSEPoint, key, keyed, 0, 0, m)
		return body, st, err
	}
	return jobs.KindDSEPoint, key, run, nil
}

// ---- dse.sweep: grid expansion, fan-out, streamed Pareto frontier ----

type dseSweepParams struct {
	Axes       []dse.Axis      `json:"axes"`
	Objectives []dse.Objective `json:"objectives"`
	Wave       int             `json:"wave"`
	Prune      *bool           `json:"prune"`
	Distance   int             `json:"distance"`
	Extended   bool            `json:"extended"`
}

// defaultObjectives is the paper's headline trade-off: qubit capacity
// against 4 K power against logical error rate.
func defaultObjectives() []dse.Objective {
	return []dse.Objective{
		{Metric: scalability.MetricMaxQubits, Goal: dse.Max},
		{Metric: scalability.MetricPower4K, Goal: dse.Min},
		{Metric: scalability.MetricLogicalError, Goal: dse.Min},
	}
}

func knownPointMetric(name string) bool {
	switch name {
	case scalability.MetricMaxQubits, scalability.MetricLogicalError,
		scalability.MetricPower4K, scalability.MetricPower100mK,
		scalability.MetricPower20mK, scalability.MetricErrorLimit:
		return true
	}
	return false
}

// normalizeDSESweep decodes, defaults and validates sweep params, returning
// the normalized params (the cache-key basis) and the validated grid.
func normalizeDSESweep(raw json.RawMessage) (dseSweepParams, dse.Grid, error) {
	var p dseSweepParams
	var zero dse.Grid
	if err := decodeParams(raw, &p); err != nil {
		return p, zero, err
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	if p.Distance < 3 || p.Distance%2 == 0 {
		return p, zero, simerr.Invalidf("service: distance must be an odd integer >= 3, got %d", p.Distance)
	}
	if p.Wave < 0 {
		return p, zero, simerr.Invalidf("service: wave must be positive, got %d", p.Wave)
	}
	if p.Wave == 0 {
		p.Wave = dse.DefaultWave
	}
	if p.Prune == nil {
		t := true
		p.Prune = &t
	}
	if len(p.Objectives) == 0 {
		p.Objectives = defaultObjectives()
	}
	if err := dse.CheckObjectives(p.Objectives); err != nil {
		return p, zero, err
	}
	for _, o := range p.Objectives {
		if !knownPointMetric(o.Metric) {
			return p, zero, simerr.Invalidf("service: unknown objective metric %q", o.Metric)
		}
	}
	// A grid without a design axis sweeps every named design.
	hasDesign := false
	for _, a := range p.Axes {
		if a.Name == axisDesign {
			hasDesign = true
		}
	}
	if !hasDesign {
		names := []any{}
		for _, d := range microarch.AllDesigns() {
			names = append(names, d.Name)
		}
		p.Axes = append([]dse.Axis{{Name: axisDesign, Values: names}}, p.Axes...)
	}
	grid := dse.Grid{Axes: p.Axes}
	vals, err := grid.Expanded()
	if err != nil {
		return p, zero, err
	}
	for i, a := range p.Axes {
		switch a.Name {
		case axisDesign:
			if a.Values == nil {
				return p, zero, simerr.Invalidf("service: the design axis must list design names")
			}
			for _, v := range vals[i] {
				name, ok := v.(string)
				if !ok {
					return p, zero, simerr.Invalidf("service: design axis values must be strings, got %v", v)
				}
				if _, ok := microarch.DesignByName(name); !ok {
					return p, zero, simerr.Invalidf("service: unknown design %q", name)
				}
			}
		case axisDistance:
			for _, v := range vals[i] {
				f, ok := v.(float64)
				if !ok || f != math.Trunc(f) || int(f) < 3 || int(f)%2 == 0 {
					return p, zero, simerr.Invalidf("service: distance axis values must be odd integers >= 3, got %v", v)
				}
			}
		case axisExtraGateError:
			for _, v := range vals[i] {
				f, ok := v.(float64)
				if !ok || f < 0 || f > 1 {
					return p, zero, simerr.Invalidf("service: extra_gate_error axis values must be in [0,1], got %v", v)
				}
			}
		default:
			return p, zero, simerr.Invalidf("service: unknown axis %q (axes: %s, %s, %s)",
				a.Name, axisDesign, axisDistance, axisExtraGateError)
		}
	}
	return p, grid, nil
}

// pointParamsFor projects one grid point onto dse.point params: swept axes
// override the sweep-level defaults.
func pointParamsFor(pt dse.Point, base dseSweepParams) dsePointParams {
	cp := dsePointParams{Distance: base.Distance, Extended: base.Extended}
	for name, v := range pt.Coords {
		switch name {
		case axisDesign:
			cp.Design, _ = v.(string)
		case axisDistance:
			if f, ok := v.(float64); ok {
				cp.Distance = int(f)
			}
		case axisExtraGateError:
			cp.ExtraGateError, _ = v.(float64)
		}
	}
	return cp
}

// sweepResult is the dse.sweep result body: the deterministic outcome (with
// its final frontier block) plus the run status.
type sweepResult struct {
	dse.Outcome
	Status simrun.Status `json:"status"`
}

func buildDSESweep(raw json.RawMessage, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, grid, err := normalizeDSESweep(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, keyed, err := requestKey(jobs.KindDSESweep, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		if env.mgr == nil {
			return nil, simrun.Status{}, simerr.Invalidf("service: dse.sweep needs an orchestrating job manager")
		}
		parentID := obs.JobID(ctx)
		tenant := ""
		if snap, ok := env.mgr.Get(parentID); ok {
			tenant = snap.Tenant
		}
		pol := dse.Policy{Wave: pp.Wave, Prune: *pp.Prune}
		outcome, serr := dse.RunSweep(ctx, grid, pp.Objectives, pol,
			sweepBound(pp), sweepEval(env, pp, parentID, tenant),
			func(pr dse.Progress) {
				progress(pr.Evaluated+pr.Pruned, pr.Total)
				if env.publish != nil {
					env.publish(parentID, "frontier", pr)
				}
			})
		st := simrun.Status{
			Requested:  outcome.GridSize,
			Completed:  outcome.Evaluated + outcome.Pruned,
			StopReason: simrun.StopCompleted,
		}
		if serr != nil {
			if !errors.Is(serr, simerr.ErrInterrupted) {
				return nil, simrun.Status{}, serr
			}
			// Cancellation/drain: publish the frontier of the committed
			// prefix as a Truncated partial (never cached), mirroring the
			// Monte-Carlo partial-result contract.
			st.Truncated = true
			st.StopReason = simrun.StopCanceled
		}
		body, merr := marshalEnvelope(jobs.KindDSESweep, key, keyed, 0, 0, sweepResult{outcome, st})
		if merr != nil {
			return nil, simrun.Status{}, merr
		}
		return body, st, nil
	}
	return jobs.KindDSESweep, key, run, nil
}

// sweepBound builds the optimistic-bound function pruning decisions use.
// scalability.PointBound is optimistic under the default goal directions;
// for any objective it does not cover exactly — error_limit, or max_qubits
// under an inverted (min) goal — the bound falls back to the goal's best
// possible value, which disables pruning on that axis rather than risking
// an unsound prune.
func sweepBound(pp dseSweepParams) dse.BoundFn {
	return func(pt dse.Point) map[string]float64 {
		cp := pointParamsFor(pt, pp)
		d, ok := microarch.DesignByName(cp.Design)
		if !ok {
			return nil // validated at normalize; nil never prunes via StrictlyDominates
		}
		b := scalability.PointBound(d, cp.ExtraGateError, scalabilityOptions(cp.Distance, pp.Extended))
		for _, o := range pp.Objectives {
			_, covered := b[o.Metric]
			inexactForGoal := o.Metric == scalability.MetricMaxQubits && o.Goal == dse.Min
			if !covered || inexactForGoal {
				if o.Goal == dse.Max {
					b[o.Metric] = math.Inf(1)
				} else {
					b[o.Metric] = math.Inf(-1)
				}
			}
		}
		return b
	}
}

// sweepEval fans one wave of points out as dse.point children of the
// running sweep and collects their metrics in point order. Children carry
// the parent's tenant (fair scheduling) and parent link (cancel cascade,
// WAL re-adoption) and dedupe through the result cache and singleflight
// like any other submission. A full queue is waited out — the parent runs
// on an orchestrator goroutine, so waiting here never starves the pool
// that must drain the queue.
func sweepEval(env buildEnv, pp dseSweepParams, parentID, tenant string) dse.EvalWave {
	return func(ctx context.Context, pts []dse.Point) ([]map[string]float64, error) {
		ids := make([]string, len(pts))
		for i, pt := range pts {
			cp := pointParamsFor(pt, pp)
			raw, err := json.Marshal(cp)
			if err != nil {
				return nil, simerr.Invalidf("service: marshal dse.point params: %v", err)
			}
			ckind, ckey, crun, err := buildDSEPoint(raw)
			if err != nil {
				return nil, err
			}
			for {
				if cerr := ctx.Err(); cerr != nil {
					return nil, simerr.Interruptedf("service: dse.sweep canceled while enqueuing wave: %v", cerr)
				}
				snap, outcome, serr := env.mgr.SubmitOpts(ckind, ckey, raw, crun,
					jobs.SubmitOptions{Tenant: tenant, Parent: parentID})
				if serr == nil {
					ids[i] = snap.ID
					if env.onChild != nil {
						env.onChild(ckind, outcome)
					}
					break
				}
				if !errors.Is(serr, jobs.ErrQueueFull) {
					return nil, serr
				}
				select {
				case <-ctx.Done():
					return nil, simerr.Interruptedf("service: dse.sweep canceled while enqueuing wave: %v", ctx.Err())
				case <-time.After(5 * time.Millisecond):
				}
			}
		}
		out := make([]map[string]float64, len(pts))
		for i, id := range ids {
			snap, err := env.mgr.Wait(ctx, id)
			if err != nil {
				return nil, err
			}
			switch {
			case snap.State == jobs.StateFailed:
				return nil, childError(snap)
			case snap.Status != nil && snap.Status.Truncated:
				return nil, simerr.Interruptedf("service: dse.point child %s truncated (%s)", id, snap.Status.StopReason)
			}
			m, err := pointMetricsFrom(snap.Result)
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
}

// childError reconstructs a typed error from a failed child's snapshot so
// the parent's failure keeps the child's simerr class (and therefore its
// HTTP status).
func childError(snap jobs.Snapshot) error {
	msg := fmt.Sprintf("service: dse.point child %s failed: %s", snap.ID, snap.Error)
	switch snap.ErrorClass {
	case "invalid-config":
		return simerr.Invalidf("%s", msg)
	case "interrupted":
		return simerr.Interruptedf("%s", msg)
	case "budget-infeasible":
		return simerr.Budgetf("%s", msg)
	case "unsupported-qasm":
		return simerr.Unsupportedf("%s", msg)
	default:
		return simerr.Numericalf("%s", msg)
	}
}

// pointMetricsFrom extracts the metric map from a dse.point result envelope.
func pointMetricsFrom(body json.RawMessage) (map[string]float64, error) {
	var envl struct {
		Result map[string]float64 `json:"result"`
	}
	if err := json.Unmarshal(body, &envl); err != nil {
		return nil, simerr.Numericalf("service: decode dse.point result: %v", err)
	}
	if envl.Result == nil {
		return nil, simerr.Numericalf("service: dse.point result carries no metrics")
	}
	return envl.Result, nil
}

// ---- job listing, event streaming and cancellation endpoints ----

// List page bounds: an unbounded listing could serialize the whole record
// window (Config.MaxRecords) per poll.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// handleJobsList serves GET /v1/jobs: retained jobs newest first, filtered
// by ?kind= ?state= ?tenant= ?parent=, page-bounded by ?limit= (default
// 100, max 1000). Result bodies are stripped — fetch an individual job (or
// its cached result) for the payload.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := jobs.Filter{
		Kind:   jobs.Kind(q.Get("kind")),
		State:  jobs.State(q.Get("state")),
		Tenant: q.Get("tenant"),
		Parent: q.Get("parent"),
	}
	if f.Kind != "" && !f.Kind.Valid() {
		s.writeError(w, simerr.Invalidf("service: unknown kind %q (kinds: %v)", f.Kind, jobs.Kinds()))
		return
	}
	switch f.State {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed:
	default:
		s.writeError(w, simerr.Invalidf("service: unknown state %q (states: queued, running, done, failed)", f.State))
		return
	}
	limit := defaultListLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			s.writeError(w, simerr.Invalidf("service: limit must be a positive integer, got %q", raw))
			return
		}
		limit = n
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	snaps := s.mgr.List(f, limit)
	for i := range snaps {
		snaps[i].Result = nil
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs  []jobs.Snapshot `json:"jobs"`
		Count int             `json:"count"`
	}{snaps, len(snaps)})
}

// handleJobEvents serves GET /v1/jobs/{id}/events as Server-Sent Events:
// the job's retained event log replays first (id: carries the sequence
// number, so reconnecting clients can spot gaps), then live events stream
// until the job finalizes — the terminal state event is always last, after
// which the stream closes. Idle streams carry comment heartbeats
// (Config.SSEHeartbeat) so dead subscribers are reaped on the next tick
// rather than holding their event subscription until a real event fires.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	past, ch, cancel, ok := s.mgr.Subscribe(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(ev jobs.Event) error {
		// Event payloads are compact JSON (no newlines), so a single data:
		// line per event is always well-formed SSE framing.
		_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		fl.Flush()
		return err
	}
	for _, ev := range past {
		if emit(ev) != nil {
			return
		}
	}
	var hb <-chan time.Time
	if s.sseHeartbeat > 0 {
		t := time.NewTicker(s.sseHeartbeat)
		defer t.Stop()
		hb = t.C
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // log sealed: the job finished
			}
			if emit(ev) != nil {
				return // dead subscriber: free the subscription now
			}
		case <-hb:
			// SSE comment line: ignored by clients, but the write fails
			// fast on a torn connection the context never noticed.
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobCancel serves DELETE /v1/jobs/{id}: cancels the job and — for a
// sweep parent — cascades to every child no other live parent or direct
// submission still needs. Victims finalize as Truncated partials; 202
// acknowledges the cascade has started, not that it has finished.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Cancel(id) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "canceled": true})
}
