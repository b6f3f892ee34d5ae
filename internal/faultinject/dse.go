package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"qisim/internal/dse"
	"qisim/internal/jobs"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/service"
	"qisim/internal/simrun"
)

// dseScenarios injects faults into the design-space exploration layer: a
// parent sweep canceled mid-fan-out, pruning racing dispatch, and a
// coordinator crash between waves. The contracts under test: cancellation
// cascades parent → children and every child finalizes as a flagged
// partial; pruning a dominated point can never change the final frontier;
// and a journal-replayed sweep re-adopts its children and converges to the
// byte-identical frontier an uninterrupted run produces.
func dseScenarios() []Scenario {
	return []Scenario{
		{
			// A dse.sweep parent canceled mid-sweep must cascade the
			// cancellation to every child it fanned out: the children
			// finalize as Truncated partials (StopCanceled), the parent
			// folds them into its own truncated partial, and nothing is
			// left queued or running. The children here block until their
			// context dies, so the scenario is deterministic: the cascade
			// is the only thing that can finish them.
			Name:          "canceled-parent-sweep-children-cancelled",
			WantTruncated: true,
			Run:           runCanceledParentSweep,
		},
		{
			// Prune soundness under dispatch: a point whose optimistic
			// bound is strictly dominated by the committed frontier must be
			// pruned BEFORE dispatch — its evaluator is never invoked — and
			// pruning must provably not change the final frontier: the
			// pruned sweep's frontier is byte-identical to an unpruned
			// sweep over the same grid.
			Name: "dominated-point-pruned-before-dispatch",
			Run:  runDominatedPointPruned,
		},
		{
			// Coordinator crash mid-sweep: the WAL is captured while the
			// sweep is fanning out (parent + current-wave children
			// pending), then replayed into a fresh service. Recovery must
			// resubmit the parent as an orchestrator, skip its journaled
			// children (the parent re-expands and re-adopts them), and the
			// recovered sweep's final frontier must be byte-identical to an
			// uninterrupted run of the same request.
			Name: "sweep-coordinator-crash-partial-frontier",
			Run:  runSweepCoordinatorCrash,
		},
	}
}

// runCanceledParentSweep drives the jobs layer directly so the
// mid-fan-out instant is deterministic: children park on ctx.Done and only
// the parent's cancel cascade can release them.
func runCanceledParentSweep() Outcome {
	const children = 4
	m := jobs.NewManager(jobs.Config{Workers: 2, Cache: rescache.New(16)})
	m.Start()
	defer m.Drain(context.Background()) //nolint:errcheck

	childRun := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		<-ctx.Done()
		return nil, simrun.Status{Requested: 1, Truncated: true, StopReason: simrun.StopCanceled}, nil
	}
	parentRun := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		parentID := obs.JobID(ctx)
		ids := make([]string, 0, children)
		for i := 0; i < children; i++ {
			key := rescache.Key(fmt.Sprintf("fi-cancel-child-%d", i))
			snap, _, err := m.SubmitOpts(jobs.KindDSEPoint, key, nil, childRun,
				jobs.SubmitOptions{Parent: parentID})
			if err != nil {
				return nil, simrun.Status{}, err
			}
			ids = append(ids, snap.ID)
		}
		done := 0
		for _, id := range ids {
			snap, err := m.Wait(context.Background(), id)
			if err != nil {
				return nil, simrun.Status{}, err
			}
			if snap.Status != nil && snap.Status.Truncated {
				done++
			}
		}
		body, _ := json.Marshal(map[string]int{"children_truncated": done})
		return body, simrun.Status{
			Requested: children, Completed: 0,
			Truncated: true, StopReason: simrun.StopCanceled,
		}, nil
	}

	parent, _, err := m.SubmitOpts(jobs.KindDSESweep, "fi-cancel-parent", nil, parentRun,
		jobs.SubmitOptions{Orchestrator: true})
	if err != nil {
		return Outcome{Err: fmt.Errorf("submit parent: %w", err)}
	}
	// Wait for the fan-out to land, then inject the fault: cancel the parent.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if kids := m.List(jobs.Filter{Parent: parent.ID}, 0); len(kids) == children {
			break
		}
		if time.Now().After(deadline) {
			return Outcome{Err: fmt.Errorf("fan-out never reached %d children", children)}
		}
		time.Sleep(time.Millisecond)
	}
	if !m.Cancel(parent.ID) {
		return Outcome{Err: fmt.Errorf("cancel refused for running parent")}
	}
	final, err := m.Wait(context.Background(), parent.ID)
	if err != nil {
		return Outcome{Err: fmt.Errorf("wait parent: %w", err)}
	}
	var st simrun.Status
	if final.Status != nil {
		st = *final.Status
	}
	out := Outcome{Status: st, Detail: fmt.Sprintf("parent %s, %d children", final.State, children)}
	if final.State != jobs.StateDone {
		out.Err = fmt.Errorf("canceled parent finished %s (%s)", final.State, final.Error)
		return out
	}
	for _, kid := range m.List(jobs.Filter{Parent: parent.ID}, 0) {
		if kid.State != jobs.StateDone || kid.Status == nil || !kid.Status.Truncated {
			out.Err = fmt.Errorf("child %s not a truncated partial: state %s status %+v",
				kid.ID, kid.State, kid.Status)
			return out
		}
	}
	if n := m.InFlight(); n != 0 {
		out.Err = fmt.Errorf("%d jobs still in flight after cascade", n)
	}
	return out
}

// runDominatedPointPruned crafts a grid where the first wave's committed
// frontier strictly dominates the later points' bounds: ERSFQ-opt8 beats
// the CMOS points on both objectives, so with the design axis ordered
// ERSFQ-first every CMOS point must be pruned without dispatch.
func runDominatedPointPruned() Outcome {
	grid := dse.Grid{Axes: []dse.Axis{
		{Name: "design", Values: []any{"ERSFQ-opt8", "4K-CMOS-advanced-opt67"}},
		{Name: "extra_gate_error", LogRange: &dse.LogRange{From: 1e-6, To: 1e-4, Points: 4}},
	}}
	objs := []dse.Objective{
		{Metric: scalability.MetricPower4K, Goal: dse.Min},
		{Metric: scalability.MetricLogicalError, Goal: dse.Min},
	}
	opt := scalability.DefaultOptions()
	dispatched := map[int]bool{}
	eval := func(_ context.Context, pts []dse.Point) ([]map[string]float64, error) {
		out := make([]map[string]float64, len(pts))
		for i, p := range pts {
			dispatched[p.Index] = true
			name, _ := p.Coords["design"].(string)
			extra, _ := p.Coords["extra_gate_error"].(float64)
			d, ok := microarch.DesignByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown design %q", name)
			}
			m, err := scalability.AnalyzePointChecked(d, extra, opt)
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
	bound := func(p dse.Point) map[string]float64 {
		name, _ := p.Coords["design"].(string)
		extra, _ := p.Coords["extra_gate_error"].(float64)
		d, ok := microarch.DesignByName(name)
		if !ok {
			return nil
		}
		return scalability.PointBound(d, extra, opt)
	}
	pol := dse.Policy{Wave: 4, Prune: true}
	pruned, err := dse.RunSweep(context.Background(), grid, objs, pol, bound, eval, nil)
	if err != nil {
		return Outcome{Err: fmt.Errorf("pruned sweep: %w", err)}
	}
	if pruned.Pruned == 0 {
		return Outcome{Err: fmt.Errorf("no point was pruned (evaluated %d of %d)", pruned.Evaluated, pruned.GridSize)}
	}
	if got := len(dispatched); got != pruned.Evaluated {
		return Outcome{Err: fmt.Errorf("pruned points reached dispatch: %d dispatched, %d evaluated", got, pruned.Evaluated)}
	}
	// Soundness: the unpruned sweep over the same grid lands on the
	// byte-identical frontier.
	full, err := dse.RunSweep(context.Background(), grid, objs, dse.Policy{Wave: 4}, nil, eval, nil)
	if err != nil {
		return Outcome{Err: fmt.Errorf("reference sweep: %w", err)}
	}
	a, err := rescache.CanonicalJSON(pruned.Frontier)
	if err != nil {
		return Outcome{Err: err}
	}
	b, err := rescache.CanonicalJSON(full.Frontier)
	if err != nil {
		return Outcome{Err: err}
	}
	if !bytes.Equal(a, b) {
		return Outcome{Err: fmt.Errorf("pruning changed the frontier:\npruned %s\nfull   %s", a, b)}
	}
	return Outcome{Detail: fmt.Sprintf("%d of %d points pruned pre-dispatch; frontier byte-identical to unpruned run",
		pruned.Pruned, pruned.GridSize)}
}

// runSweepCoordinatorCrash snapshots a live sweep's WAL mid-fan-out (the
// crash instant, torn tail and all), replays it into a fresh service, and
// compares the recovered sweep's result bytes against an uninterrupted run.
func runSweepCoordinatorCrash() Outcome {
	sweep := `{"kind":"dse.sweep","params":{` +
		`"axes":[{"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-3,"points":24}}],` +
		`"wave":8}}`

	dirA, err := os.MkdirTemp("", "faultinject-dse-crash-a-*")
	if err != nil {
		return Outcome{Err: fmt.Errorf("tempdir: %w", err)}
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "faultinject-dse-crash-b-*")
	if err != nil {
		return Outcome{Err: fmt.Errorf("tempdir: %w", err)}
	}
	defer os.RemoveAll(dirB)

	// Life 1: a journaled service starts the sweep; the WAL is copied the
	// moment children appear — parent and current-wave children pending.
	svcA, err := service.New(service.Config{Workers: 2, DataDir: dirA})
	if err != nil {
		return Outcome{Err: fmt.Errorf("service A: %w", err)}
	}
	svcA.Start()
	srvA := httptest.NewServer(svcA.Handler())
	defer srvA.Close()
	defer svcA.Drain(context.Background()) //nolint:errcheck
	if _, err := svcA.Recover(); err != nil {
		return Outcome{Err: fmt.Errorf("service A recover: %w", err)}
	}
	id, err := submitJSON(srvA.URL, sweep)
	if err != nil {
		return Outcome{Err: fmt.Errorf("submit sweep: %w", err)}
	}
	var wal []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srvA.URL + "/v1/jobs?parent=" + id)
		if err != nil {
			return Outcome{Err: fmt.Errorf("list children: %w", err)}
		}
		var list struct {
			Count int `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			return Outcome{Err: fmt.Errorf("decode list: %w", err)}
		}
		if list.Count > 0 {
			// The crash instant: capture the WAL as-is, mid-append races
			// included (a torn tail line is the journal's problem to
			// survive).
			if wal, err = os.ReadFile(dirA + "/journal.wal"); err != nil {
				return Outcome{Err: fmt.Errorf("capture WAL: %w", err)}
			}
			break
		}
		if time.Now().After(deadline) {
			return Outcome{Err: fmt.Errorf("sweep never fanned out children")}
		}
		time.Sleep(time.Millisecond)
	}
	// Life 1 keeps running to completion — its result is the uninterrupted
	// reference the recovered run must match byte-for-byte.
	want, err := waitResult(srvA.URL, id)
	if err != nil {
		return Outcome{Err: fmt.Errorf("reference sweep: %w", err)}
	}

	// Life 2: a fresh service boots from the crash-instant WAL.
	if err := os.WriteFile(dirB+"/journal.wal", wal, 0o644); err != nil {
		return Outcome{Err: fmt.Errorf("plant WAL: %w", err)}
	}
	svcB, err := service.New(service.Config{Workers: 2, DataDir: dirB})
	if err != nil {
		return Outcome{Err: fmt.Errorf("service B: %w", err)}
	}
	svcB.Start()
	srvB := httptest.NewServer(svcB.Handler())
	defer srvB.Close()
	defer svcB.Drain(context.Background()) //nolint:errcheck
	recovered, err := svcB.Recover()
	if err != nil {
		return Outcome{Err: fmt.Errorf("replay WAL: %w", err)}
	}
	if recovered == 0 {
		return Outcome{Err: fmt.Errorf("crash-instant WAL recovered no jobs")}
	}
	resp, err := http.Get(srvB.URL + "/v1/jobs?kind=dse.sweep")
	if err != nil {
		return Outcome{Err: fmt.Errorf("list recovered sweeps: %w", err)}
	}
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) == 0 {
		return Outcome{Err: fmt.Errorf("recovered sweep not listed (err %v)", err)}
	}
	got, err := waitResult(srvB.URL, list.Jobs[0].ID)
	if err != nil {
		return Outcome{Err: fmt.Errorf("recovered sweep: %w", err)}
	}
	if !bytes.Equal(got, want) {
		return Outcome{Err: fmt.Errorf("recovered frontier differs from uninterrupted run:\ngot  %.200s\nwant %.200s", got, want)}
	}
	return Outcome{Detail: fmt.Sprintf("recovered %d journaled jobs; frontier byte-identical to uninterrupted run (%d bytes)",
		recovered, len(got))}
}

// submitJSON posts one job request and returns the assigned job ID.
func submitJSON(base, body string) (string, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit returned %d: %s", resp.StatusCode, raw)
	}
	var sub struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return "", err
	}
	if sub.Job.ID == "" {
		return "", fmt.Errorf("submit response carries no job id: %s", raw)
	}
	return sub.Job.ID, nil
}

// waitResult polls a job until it is done and returns its result bytes.
func waitResult(base, id string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		var snap struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch snap.State {
		case "done":
			return snap.Result, nil
		case "failed":
			return nil, fmt.Errorf("job %s failed: %s", id, snap.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("job %s never finished", id)
}
