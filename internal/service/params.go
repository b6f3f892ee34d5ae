// Request parsing, normalization, cache keying and per-kind executors.
//
// The normalization contract behind the cache key (see DESIGN.md "Cache
// keying"):
//
//  1. params JSON is decoded strictly (unknown fields rejected) into a typed
//     struct — incoming field ORDER therefore cannot matter;
//  2. defaults are applied BEFORE keying, so an omitted option and its
//     explicit default value key identically;
//  3. the worker count is stripped — the deterministic sharded engine makes
//     the result bit-identical for every worker count, so it must not
//     fragment the cache;
//  4. seed and shard size ARE part of the key — they fix the RNG stream
//     layout, so different values genuinely produce different bytes.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"time"

	"qisim/internal/checkpoint"
	"qisim/internal/compile"
	"qisim/internal/cyclesim"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/pauli"
	"qisim/internal/qasm"
	"qisim/internal/readout"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/validate"
)

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params"`
	// TimeoutMS, when positive, bounds this run's wall clock. The deadline
	// rides the job context, so on a coordinator it propagates into every
	// lease grant and fleet workers stop at the same wall-clock fence.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// withTimeout bounds a runner's wall clock. Hitting the deadline truncates
// the run at the last committed shard exactly like a cancellation — the
// engine's Stop* status machinery reports the reason.
func withTimeout(run jobs.Runner, d time.Duration) jobs.Runner {
	return func(ctx context.Context, progress func(completed, requested int)) ([]byte, simrun.Status, error) {
		tctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		return run(tctx, progress)
	}
}

// buildEnv carries the server-side execution environment into the per-kind
// builders: where checkpoints live and the observability hooks that count
// what the runners did. The zero value disables checkpointing (tests, and
// daemons running without -data-dir).
type buildEnv struct {
	// ckptDir is the crash-safe snapshot directory ("" = checkpointing off).
	ckptDir string
	// onSaves receives the number of snapshots a finished run wrote.
	onSaves func(n int)
	// onResume fires when a runner actually resumed from a snapshot instead
	// of starting cold.
	onResume func()
	// dist, when set, routes Monte-Carlo runs through the fleet coordinator;
	// ErrNoWorkers degrades gracefully to the in-process path below.
	dist *dist.Coordinator
	// onDegraded fires when a coordinator-routed run falls back to the
	// local path because the fleet has zero live workers.
	onDegraded func()
	// mgr lets orchestrator runners (dse.sweep) fan children out through
	// the job queue, wait on them and inspect their snapshots. Nil outside
	// a server (worker-side core building never runs orchestrators).
	mgr *jobs.Manager
	// onChild observes each child submission's outcome so the service
	// counts internally fanned-out jobs like HTTP submissions.
	onChild func(kind jobs.Kind, outcome jobs.Outcome)
	// publish streams a custom event on a job's event log (nil = no-op).
	publish func(id, typ string, data any)
}

// runDist dispatches one MC run across the worker fleet. The bool reports
// whether the dist lane produced (or definitively failed) the run; false
// means "no live workers — take the standalone path" (counted as a
// degraded run). The merged bytes are byte-identical to the standalone
// path by the dist fold-replay contract. The job's progress callback is
// fed from the coordinator's committed shard frontier, so fleet-routed
// runs report live progress exactly like local ones.
func (env buildEnv) runDist(ctx context.Context, kind jobs.Kind, key rescache.Key,
	core dist.Core, plan dist.Plan, params any, progress func(int, int)) ([]byte, simrun.Status, bool, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, simrun.Status{}, true, simerr.Invalidf("service: marshal dist params: %v", err)
	}
	body, st, err := env.dist.Execute(ctx, string(kind), string(key), raw, core, plan, progress)
	if errors.Is(err, dist.ErrNoWorkers) {
		if env.onDegraded != nil {
			env.onDegraded()
		}
		return nil, simrun.Status{}, false, nil
	}
	return body, st, true, err
}

// attachCheckpoint wires crash-safe checkpointing into a runner's engine
// options (no-op without a checkpoint dir). Resume is always attempted: a
// missing snapshot starts cold, a snapshot from an interrupted earlier life
// (or an interrupted earlier submission of the same request) continues from
// the committed prefix — the deterministic engine makes the final bytes
// identical either way. A corrupted or mismatched snapshot is a typed
// runtime error on the job, never a silent replay.
func (env buildEnv) attachCheckpoint(ctx context.Context, opt *simrun.Options, meta checkpoint.Meta) (*checkpoint.Saver, error) {
	if env.ckptDir == "" {
		return nil, nil
	}
	_, span := obs.StartSpan(ctx, "checkpoint.load")
	sv, snap, err := checkpoint.Attach(opt, env.ckptDir, true, 1, meta)
	if err != nil {
		span.SetAttr(obs.String("error", simerr.Class(err)))
		span.End()
		return nil, err
	}
	span.SetAttr(obs.Bool("resumed", snap != nil))
	span.End()
	if snap != nil && env.onResume != nil {
		env.onResume()
	}
	return sv, nil
}

// finishCheckpoint reports snapshot-write counts and retires the snapshot of
// a complete (non-truncated) run — the result is cached now, so the
// checkpoint has nothing left to protect. Truncated runs keep theirs: it is
// the resume point for the journal-driven retry.
func (env buildEnv) finishCheckpoint(sv *checkpoint.Saver, truncated bool) {
	if sv == nil {
		return
	}
	if env.onSaves != nil {
		env.onSaves(sv.Saves())
	}
	if !truncated {
		os.Remove(sv.Path) //nolint:errcheck // best-effort cleanup
	}
}

// buildJob validates and normalizes one request, returning its kind, cache
// key and executor. All *configuration* errors surface here (mapped to HTTP
// status codes by the caller); *runtime* errors surface on the job record.
func buildJob(req jobRequest, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	kind := jobs.Kind(req.Kind)
	if !kind.Valid() {
		return "", "", nil, simerr.Invalidf("service: unknown job kind %q (kinds: %v)", req.Kind, jobs.Kinds())
	}
	switch kind {
	case jobs.KindSurfaceMC:
		return buildSurfaceMC(req.Params, env)
	case jobs.KindPauliMC:
		return buildPauliMC(req.Params, env)
	case jobs.KindReadoutMC:
		return buildReadoutMC(req.Params, env)
	case jobs.KindScalabilityAnalyze:
		return buildScalabilityAnalyze(req.Params)
	case jobs.KindDSEPoint:
		return buildDSEPoint(req.Params)
	case jobs.KindDSESweep:
		return buildDSESweep(req.Params, env)
	default:
		return buildScalabilitySweep(req.Params)
	}
}

// decodeParams strictly decodes raw params into dst (nil/empty raw = all
// defaults). Unknown fields are configuration errors so a typo'd option can
// never silently fall back to a default.
func decodeParams(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return simerr.Invalidf("service: bad params: %v", err)
	}
	return nil
}

// keyedParams projects normalized params into the canonical key/body form:
// the worker count is removed (execution hint — does not change the result
// bytes), everything else is kept.
func keyedParams(params any) (map[string]any, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, simerr.Invalidf("service: marshal params: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, simerr.Invalidf("service: reparse params: %v", err)
	}
	delete(m, "workers")
	return m, nil
}

// requestKey derives the content address of a normalized request.
func requestKey(kind jobs.Kind, params any, seed int64, shardSize int) (rescache.Key, map[string]any, error) {
	m, err := keyedParams(params)
	if err != nil {
		return "", nil, err
	}
	// seed and shard_size live in the envelope, not the params object.
	delete(m, "seed")
	delete(m, "shard_size")
	key, err := rescache.KeyFor(string(kind), m, seed, shardSize)
	if err != nil {
		return "", nil, simerr.Invalidf("service: key request: %v", err)
	}
	return key, m, nil
}

// resultEnvelope is the stored/streamed result body: self-describing
// (kind + the exact normalized request that produced it) and byte-
// deterministic — encoding/json sorts all map keys, and the embedded result
// structs marshal deterministically.
type resultEnvelope struct {
	Kind      string         `json:"kind"`
	Key       rescache.Key   `json:"key"`
	Params    map[string]any `json:"params"`
	Seed      int64          `json:"seed"`
	ShardSize int            `json:"shard_size,omitempty"`
	Result    any            `json:"result"`
}

func marshalEnvelope(kind jobs.Kind, key rescache.Key, params map[string]any, seed int64, shardSize int, result any) ([]byte, error) {
	body, err := json.Marshal(resultEnvelope{
		Kind: string(kind), Key: key, Params: params, Seed: seed, ShardSize: shardSize, Result: result,
	})
	if err != nil {
		return nil, simerr.Numericalf("service: marshal result: %v", err)
	}
	return body, nil
}

// ---- surface.mc: phenomenological surface-code Monte-Carlo decoder ----

type surfaceMCParams struct {
	Distance  int      `json:"distance"`
	P         *float64 `json:"p"`
	Q         *float64 `json:"q"`
	Rounds    int      `json:"rounds"`
	Shots     int      `json:"shots"`
	Seed      int64    `json:"seed"`
	RelSE     float64  `json:"rel_se"`
	ShardSize int      `json:"shard_size"`
	Workers   int      `json:"workers,omitempty"`
}

// normalizeSurfaceMC decodes and defaults surface.mc params. The same
// normalization runs on the submitting server and on fleet workers
// rebuilding a core from a grant, so both sides agree on the geometry.
func normalizeSurfaceMC(raw json.RawMessage) (surfaceMCParams, error) {
	var p surfaceMCParams
	if err := decodeParams(raw, &p); err != nil {
		return p, err
	}
	// Defaults mirror `qisim mc` (zero seed means "the default seed").
	if p.Distance == 0 {
		p.Distance = 11
	}
	if p.P == nil {
		p.P = f64(0.005)
	}
	if p.Q == nil {
		p.Q = f64(0.005)
	}
	if p.Rounds == 0 {
		p.Rounds = p.Distance
	}
	if p.Shots == 0 {
		p.Shots = 200000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ShardSize == 0 {
		p.ShardSize = simrun.DefaultShardSize
	}
	return p, nil
}

func buildSurfaceMC(raw json.RawMessage, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, err := normalizeSurfaceMC(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, keyed, err := requestKey(jobs.KindSurfaceMC, p, p.Seed, p.ShardSize)
	if err != nil {
		return "", "", nil, err
	}
	pp := p // captured normalized copy
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		if env.dist != nil {
			core, err := surfaceCore(pp, key, keyed)
			if err != nil {
				return nil, simrun.Status{}, err
			}
			body, st, handled, err := env.runDist(ctx, jobs.KindSurfaceMC, key, core, surfacePlan(pp), pp, progress)
			if handled {
				return body, st, err
			}
		}
		opt := simrun.Options{Workers: pp.Workers, ShardSize: pp.ShardSize,
			TargetRelStdErr: pp.RelSE, Progress: progress}
		sv, err := env.attachCheckpoint(ctx, &opt, checkpoint.Meta{
			Kind: string(jobs.KindSurfaceMC), Key: string(key), Seed: pp.Seed,
			ShardSize: pp.ShardSize, Budget: pp.Shots, TargetRelStdErr: pp.RelSE,
		})
		if err != nil {
			return nil, simrun.Status{}, err
		}
		res, err := surface.MonteCarloPhenomenologicalCtx(ctx, pp.Distance, *pp.P, *pp.Q,
			pp.Rounds, pp.Shots, pp.Seed, opt)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		env.finishCheckpoint(sv, res.Status.Truncated)
		out := struct {
			surface.DecoderResult
			Rate float64 `json:"logical_error_rate"`
		}{res, res.Rate()}
		body, err := marshalEnvelope(jobs.KindSurfaceMC, key, keyed, pp.Seed, pp.ShardSize, out)
		return body, res.Status, err
	}
	return jobs.KindSurfaceMC, key, run, nil
}

// ---- pauli.mc: QASM → compile → cycle sim → Pauli-channel fidelity MC ----

type pauliMCParams struct {
	QASM      string  `json:"qasm"`
	Machine   string  `json:"machine"`
	Arch      string  `json:"arch"`
	Shots     int     `json:"shots"`
	Seed      int64   `json:"seed"`
	PeriodNS  float64 `json:"period_ns"`
	RelSE     float64 `json:"rel_se"`
	ShardSize int     `json:"shard_size"`
	Workers   int     `json:"workers,omitempty"`
}

// normalizePauliMC decodes and defaults pauli.mc params, resolves the
// machine's error rates and compiles the program — malformed requests
// surface here as typed configuration errors (before a queue slot is
// spent server-side, before any execution worker-side).
func normalizePauliMC(raw json.RawMessage) (pauliMCParams, pauli.ErrorRates, *compile.Executable, error) {
	var p pauliMCParams
	if err := decodeParams(raw, &p); err != nil {
		return p, pauli.ErrorRates{}, nil, err
	}
	if p.QASM == "" {
		return p, pauli.ErrorRates{}, nil, simerr.Invalidf("service: pauli.mc needs a qasm program")
	}
	if p.Machine == "" {
		p.Machine = "ibm_mumbai"
	}
	if p.Arch == "" {
		p.Arch = "cmos"
	}
	if p.Arch != "cmos" && p.Arch != "sfq" {
		return p, pauli.ErrorRates{}, nil, simerr.Invalidf("service: arch must be cmos or sfq, got %q", p.Arch)
	}
	if p.Shots == 0 {
		p.Shots = 4000
	}
	if p.Seed == 0 {
		p.Seed = 3
	}
	if p.PeriodNS == 0 {
		p.PeriodNS = 100
	}
	if p.PeriodNS < 0 {
		return p, pauli.ErrorRates{}, nil, simerr.Invalidf("service: period_ns must be positive, got %v", p.PeriodNS)
	}
	if p.ShardSize == 0 {
		p.ShardSize = simrun.DefaultShardSize
	}
	var rates pauli.ErrorRates
	found := false
	for _, m := range validate.Machines() {
		if m.Name == p.Machine {
			rates, found = m.Rates, true
			break
		}
	}
	if !found {
		return p, pauli.ErrorRates{}, nil, simerr.Invalidf("service: unknown machine %q", p.Machine)
	}
	prog, err := qasm.Parse(p.QASM)
	if err != nil {
		return p, pauli.ErrorRates{}, nil, err
	}
	ex, err := compileProgram(prog)
	if err != nil {
		return p, pauli.ErrorRates{}, nil, err
	}
	return p, rates, ex, nil
}

func buildPauliMC(raw json.RawMessage, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, rates, ex, err := normalizePauliMC(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, keyed, err := requestKey(jobs.KindPauliMC, p, p.Seed, p.ShardSize)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		if env.dist != nil {
			core, err := pauliCore(pp, rates, ex, key, keyed)
			if err != nil {
				return nil, simrun.Status{}, err
			}
			body, st, handled, err := env.runDist(ctx, jobs.KindPauliMC, key, core, pauliPlan(pp), pp, progress)
			if handled {
				return body, st, err
			}
		}
		cfg := cyclesim.CMOSConfig()
		if pp.Arch == "sfq" {
			cfg = cyclesim.SFQConfig(1)
		}
		simRes, err := cyclesim.Run(ex, cfg)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		pcfg := pauli.DefaultConfig(rates)
		pcfg.Shots = pp.Shots
		pcfg.Seed = pp.Seed
		pcfg.DecoherencePeriod = pp.PeriodNS * 1e-9
		opt := simrun.Options{Workers: pp.Workers, ShardSize: pp.ShardSize,
			TargetRelStdErr: pp.RelSE, Progress: progress}
		sv, err := env.attachCheckpoint(ctx, &opt, checkpoint.Meta{
			Kind: string(jobs.KindPauliMC), Key: string(key), Seed: pp.Seed,
			ShardSize: pp.ShardSize, Budget: pp.Shots, TargetRelStdErr: pp.RelSE,
		})
		if err != nil {
			return nil, simrun.Status{}, err
		}
		mc, err := pauli.MonteCarloCtx(ctx, simRes, pcfg, opt)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		env.finishCheckpoint(sv, mc.Status.Truncated)
		out := struct {
			pauli.MCResult
			ESP        float64 `json:"esp"`
			MakespanNS float64 `json:"makespan_ns"`
		}{mc, pauli.ESP(simRes, pcfg), simRes.TotalTime * 1e9}
		body, err := marshalEnvelope(jobs.KindPauliMC, key, keyed, pp.Seed, pp.ShardSize, out)
		return body, mc.Status, err
	}
	return jobs.KindPauliMC, key, run, nil
}

// ---- readout.mc: multi-round early-decision readout Monte-Carlo ----

type readoutMCParams struct {
	Range     *float64 `json:"range"`
	MaxRounds int      `json:"max_rounds"`
	Shots     int      `json:"shots"`
	Seed      int64    `json:"seed"`
	RelSE     float64  `json:"rel_se"`
	ShardSize int      `json:"shard_size"`
	Workers   int      `json:"workers,omitempty"`
}

// normalizeReadoutMC decodes and defaults readout.mc params.
func normalizeReadoutMC(raw json.RawMessage) (readoutMCParams, error) {
	var p readoutMCParams
	if err := decodeParams(raw, &p); err != nil {
		return p, err
	}
	def := readout.DefaultMultiRoundConfig()
	if p.Range == nil {
		p.Range = f64(def.Range) // explicit 0 is a meaningful (degenerate) range
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = def.MaxRounds
	}
	if p.Shots == 0 {
		p.Shots = def.Shots
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	if p.ShardSize == 0 {
		p.ShardSize = simrun.DefaultShardSize
	}
	return p, nil
}

func buildReadoutMC(raw json.RawMessage, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, err := normalizeReadoutMC(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, keyed, err := requestKey(jobs.KindReadoutMC, p, p.Seed, p.ShardSize)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		if env.dist != nil {
			core, err := readoutCore(pp, key, keyed)
			if err != nil {
				return nil, simrun.Status{}, err
			}
			body, st, handled, err := env.runDist(ctx, jobs.KindReadoutMC, key, core, readoutPlan(pp), pp, progress)
			if handled {
				return body, st, err
			}
		}
		cfg := readout.MultiRoundConfig{
			Range: *pp.Range, MaxRounds: pp.MaxRounds, Shots: pp.Shots, Seed: pp.Seed,
		}
		opt := simrun.Options{Workers: pp.Workers, ShardSize: pp.ShardSize,
			TargetRelStdErr: pp.RelSE, Progress: progress}
		sv, err := env.attachCheckpoint(ctx, &opt, checkpoint.Meta{
			Kind: string(jobs.KindReadoutMC), Key: string(key), Seed: pp.Seed,
			ShardSize: pp.ShardSize, Budget: pp.Shots, TargetRelStdErr: pp.RelSE,
		})
		if err != nil {
			return nil, simrun.Status{}, err
		}
		res, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), cfg, opt)
		if err != nil {
			return nil, simrun.Status{}, err
		}
		env.finishCheckpoint(sv, res.Status.Truncated)
		body, err := marshalEnvelope(jobs.KindReadoutMC, key, keyed, pp.Seed, pp.ShardSize, res)
		return body, res.Status, err
	}
	return jobs.KindReadoutMC, key, run, nil
}

// ---- scalability.analyze: design-point scalability verdicts ----

type scalabilityAnalyzeParams struct {
	Designs  []string `json:"designs"`
	Distance int      `json:"distance"`
	Extended bool     `json:"extended"`
}

func scalabilityOptions(distance int, extended bool) scalability.Options {
	opt := scalability.DefaultOptions()
	if extended {
		opt = scalability.ExtendedOptions()
	}
	opt.Distance = distance
	return opt
}

func buildScalabilityAnalyze(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	var p scalabilityAnalyzeParams
	if err := decodeParams(raw, &p); err != nil {
		return "", "", nil, err
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	var designs []microarch.Design // nil: every design
	for _, name := range p.Designs {
		d, ok := microarch.DesignByName(name)
		if !ok {
			return "", "", nil, simerr.Invalidf("service: unknown design %q", name)
		}
		designs = append(designs, d)
	}
	// Analyses are deterministic and seedless: seed 0 / shard 0 in the key.
	key, keyed, err := requestKey(jobs.KindScalabilityAnalyze, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	// A microsecond analytic job reports no live progress: the job's final
	// status supersedes it at once.
	run := func(ctx context.Context, _ func(int, int)) ([]byte, simrun.Status, error) {
		ds := designs
		if ds == nil {
			ds = microarch.AllDesigns()
		}
		as, status, err := scalability.AnalyzeDesigns(ctx, ds, scalabilityOptions(pp.Distance, pp.Extended))
		if err != nil {
			return nil, simrun.Status{}, err
		}
		exported := make([]scalability.ExportedAnalysis, len(as))
		for i, a := range as {
			exported[i] = scalability.Export(a)
		}
		out := struct {
			Analyses []scalability.ExportedAnalysis `json:"analyses"`
			Status   simrun.Status                  `json:"status"`
		}{exported, status}
		body, err := marshalEnvelope(jobs.KindScalabilityAnalyze, key, keyed, 0, 0, out)
		return body, status, err
	}
	return jobs.KindScalabilityAnalyze, key, run, nil
}

// ---- scalability.sweep: qubit-count sweep of one design ----

type scalabilitySweepParams struct {
	Design      string `json:"design"`
	QubitCounts []int  `json:"qubit_counts"`
	Distance    int    `json:"distance"`
	Extended    bool   `json:"extended"`
}

func buildScalabilitySweep(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	var p scalabilitySweepParams
	if err := decodeParams(raw, &p); err != nil {
		return "", "", nil, err
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	if p.Design == "" {
		return "", "", nil, simerr.Invalidf("service: scalability.sweep needs a design name")
	}
	d, ok := microarch.DesignByName(p.Design)
	if !ok {
		return "", "", nil, simerr.Invalidf("service: unknown design %q", p.Design)
	}
	if len(p.QubitCounts) == 0 {
		return "", "", nil, simerr.Invalidf("service: scalability.sweep needs at least one qubit count")
	}
	for _, n := range p.QubitCounts {
		if n <= 0 {
			return "", "", nil, simerr.Invalidf("service: qubit count must be positive, got %d", n)
		}
	}
	key, keyed, err := requestKey(jobs.KindScalabilitySweep, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	pp := p
	run := func(ctx context.Context, _ func(int, int)) ([]byte, simrun.Status, error) {
		res, err := scalability.SweepCtx(ctx, d, pp.QubitCounts, scalabilityOptions(pp.Distance, pp.Extended))
		if err != nil {
			return nil, simrun.Status{}, err
		}
		body, err := marshalEnvelope(jobs.KindScalabilitySweep, key, keyed, 0, 0, res)
		return body, res.Status, err
	}
	return jobs.KindScalabilitySweep, key, run, nil
}

func f64(v float64) *float64 { return &v }

// compileProgram is the QASM→executable step (kept tiny so the pauli.mc
// builder reads linearly).
func compileProgram(prog *qasm.Program) (*compile.Executable, error) {
	return compile.Compile(prog, compile.DefaultOptions())
}
