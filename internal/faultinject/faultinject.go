// Package faultinject is the deterministic fault-injection harness of the
// robustness layer: each Scenario corrupts one input of the simulation
// pipeline — NaN pulse samples, corrupted instruction streams, exhausted
// shot budgets, forced non-convergence — and records what the public API
// surfaced. The contract under test: every injected fault must come back as
// a typed error (matched with errors.Is against the simerr sentinels) or as
// a flagged partial result (Status.Truncated / !Status.Converged) — never a
// panic, a hang, or silent numerical garbage.
package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"qisim/internal/checkpoint"
	"qisim/internal/cmath"
	"qisim/internal/compile"
	"qisim/internal/ham"
	"qisim/internal/jobs"
	"qisim/internal/lattice"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/pauli"
	"qisim/internal/pulse"
	"qisim/internal/qasm"
	"qisim/internal/readout"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/workloads"
)

// Outcome is what one fault scenario surfaced at its public boundary.
type Outcome struct {
	// Err is the typed error surfaced (nil when the fault surfaced as a
	// flagged result instead).
	Err error
	// Status is the run status of context-aware scenarios (zero value when
	// the scenario fails before a run starts).
	Status simrun.Status
	// Detail describes what came back, for the suite's failure messages.
	Detail string
}

// Scenario is one deterministic fault-injection case.
type Scenario struct {
	// Name identifies the scenario in test output.
	Name string
	// Class is the simerr sentinel the fault must surface as. Nil means the
	// fault must surface as a flagged result (see WantTruncated /
	// WantUnconverged) with a nil error.
	Class error
	// WantTruncated marks scenarios that must return a flagged partial
	// result (Status.Truncated).
	WantTruncated bool
	// WantUnconverged marks scenarios that must exhaust their budget
	// without satisfying the convergence guard (Status.Converged false with
	// a convergence target set).
	WantUnconverged bool
	// Run injects the fault and reports the outcome.
	Run func() Outcome
}

// Check executes one scenario with a panic backstop and verifies the
// outcome against the scenario's expectation. A non-nil returned error is a
// contract violation: a panic escaped a public API, a fault was classified
// wrongly, or a partial result was not flagged.
func Check(s Scenario) (out Outcome, verdict error) {
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				verdict = fmt.Errorf("faultinject %s: panic escaped public API: %v", s.Name, r)
			}
		}()
		out = s.Run()
	}()
	if panicked {
		return out, verdict
	}
	if s.Class != nil {
		if !errors.Is(out.Err, s.Class) {
			return out, fmt.Errorf("faultinject %s: want error class %v, got %v (%s)",
				s.Name, s.Class, out.Err, out.Detail)
		}
		return out, nil
	}
	if out.Err != nil {
		return out, fmt.Errorf("faultinject %s: want flagged result, got error %v", s.Name, out.Err)
	}
	if s.WantTruncated && !out.Status.Truncated {
		return out, fmt.Errorf("faultinject %s: partial result not flagged Truncated (status %+v)",
			s.Name, out.Status)
	}
	if s.WantUnconverged && out.Status.Converged {
		return out, fmt.Errorf("faultinject %s: run reported convergence it cannot have reached (status %+v)",
			s.Name, out.Status)
	}
	return out, nil
}

// canceledCtx returns an already-canceled context: the deterministic
// analogue of "the deadline fired mid-sweep".
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// Scenarios returns the deterministic fault-injection suite. Every scenario
// is reproducible: no real timers or signals — cancellation is injected with
// pre-canceled contexts, corruption with explicit NaNs, and the distributed
// scenarios (see dist.go) drive lease expiry with a manual clock.
func Scenarios() []Scenario {
	return append([]Scenario{
		{
			// (a) Numerical corruption: a NaN sample injected into a drive
			// pulse must be caught by the cmath sentinels after Hamiltonian
			// evolution, not propagate into a garbage fidelity.
			Name:  "nan-pulse-sample",
			Class: simerr.ErrNumerical,
			Run: func() Outcome {
				const n = 32
				gateTime := 25e-9
				ts := gateTime / n
				amps := pulse.Samples(pulse.CosineEnvelope{}, n, gateTime)
				amps[n/2] = math.NaN() // the injected fault
				d := ham.NewDrivenTransmon(3, 0, 2*math.Pi*-240e6, 2*math.Pi*25e6)
				hs := make([]*cmath.Matrix, n)
				for k := 0; k < n; k++ {
					hs[k] = d.Hamiltonian(amps[k], 0)
				}
				u := ham.EvolveSamples(hs, ts)
				err := cmath.CheckFinite("pulse-driven propagator", u)
				return Outcome{Err: err, Detail: "NaN drive sample through 3-level evolution"}
			},
		},
		{
			// (a') The same corruption at the Expm boundary: the checked
			// kernel must reject a non-finite generator up front.
			Name:  "nan-hamiltonian-expm",
			Class: simerr.ErrNumerical,
			Run: func() Outcome {
				h := cmath.NewMatrix(2, 2)
				h.Data[0] = complex(math.NaN(), 0)
				_, err := cmath.ExpmChecked(h)
				return Outcome{Err: err, Detail: "NaN generator into ExpmChecked"}
			},
		},
		{
			// (a'') A corrupted Kraus operator must be rejected before the
			// trajectory sampler averages it into a fidelity.
			Name:  "nan-kraus-operator",
			Class: simerr.ErrNumerical,
			Run: func() Outcome {
				c := pauli.DecoherenceChannel(25e-9, 280e-6, 175e-6)
				c.Ops[0].Data[0] = complex(math.Inf(1), 0) // the injected fault
				res, err := pauli.TrajectoryAverageFidelityCtx(context.Background(), c, 256, 7, simrun.Options{})
				return Outcome{Err: err, Status: res.Status, Detail: "Inf Kraus entry into trajectory MC"}
			},
		},
		{
			// (b) Corrupted instruction stream, textual form: garbage QASM
			// must come back as ErrUnsupportedQASM from Parse.
			Name:  "corrupted-qasm-source",
			Class: simerr.ErrUnsupportedQASM,
			Run: func() Outcome {
				_, err := qasm.Parse("OPENQASM 2.0;\nqreg q[4];\nfrobnicate q[0], q[99;\n")
				return Outcome{Err: err, Detail: "malformed statement into Parse"}
			},
		},
		{
			// (b') Corrupted instruction stream, programmatic form: an
			// out-of-range qubit index built directly into a Program must be
			// rejected by the compiler's Validate boundary, not crash the
			// queue indexing.
			Name:  "corrupted-instruction-stream",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				p := &qasm.Program{NQubits: 4, NClbits: 4}
				p.Gates = append(p.Gates,
					qasm.Gate{Name: "h", Qubits: []int{0}, CBit: -1},
					qasm.Gate{Name: "cx", Qubits: []int{0, 17}, CBit: -1}, // the injected fault
				)
				_, err := compile.Compile(p, compile.DefaultOptions())
				return Outcome{Err: err, Detail: "qubit 17 in a 4-qubit program"}
			},
		},
		{
			// (b'') NaN gate parameter: structural validation must catch a
			// non-finite rotation angle before it reaches pulse generation.
			Name:  "nan-gate-parameter",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				p := &qasm.Program{NQubits: 2, NClbits: 2}
				p.Gates = append(p.Gates,
					qasm.Gate{Name: "rz", Qubits: []int{0}, Params: []float64{math.NaN()}, CBit: -1})
				_, err := compile.Compile(p, compile.DefaultOptions())
				return Outcome{Err: err, Detail: "NaN rz angle into Compile"}
			},
		},
		{
			// Undersized workload instance: the generator boundary must
			// return a typed error instead of producing a panic deep in a
			// generator loop.
			Name:  "undersized-workload",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				_, err := workloads.Generate("adder", 1)
				return Outcome{Err: err, Detail: "adder(1) below its 3-qubit minimum"}
			},
		},
		{
			// Invalid lattice request through the checked constructor.
			Name:  "invalid-lattice-layout",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				_, err := lattice.NewLayoutChecked(0, 7)
				return Outcome{Err: err, Detail: "zero logical qubits into NewLayoutChecked"}
			},
		},
		{
			// (c) Budget exhaustion mid-decode: a canceled context during a
			// phenomenological Monte-Carlo run must yield a flagged partial
			// result, not a thrown-away run or an error.
			Name:          "canceled-decoder-mc",
			WantTruncated: true,
			Run: func() Outcome {
				res, err := surface.MonteCarloPhenomenologicalCtx(
					canceledCtx(), 5, 0.02, 0.02, 5, 20000, 11, simrun.Options{CheckEvery: 1})
				return Outcome{Err: err, Status: res.Status,
					Detail: fmt.Sprintf("completed %d/%d shots", res.Status.Completed, res.Status.Requested)}
			},
		},
		{
			// (c') The same exhaustion inside a scalability sweep: the
			// points already computed (the first, which runs before the
			// context is polled) must survive, flagged Truncated.
			Name:          "canceled-scalability-sweep",
			WantTruncated: true,
			Run: func() Outcome {
				d := microarch.AllDesigns()[0]
				res, err := scalability.SweepCtx(canceledCtx(), d,
					[]int{100, 1000, 10000}, scalability.DefaultOptions())
				return Outcome{Err: err, Status: res.Status,
					Detail: fmt.Sprintf("kept %d sweep points", len(res.Points))}
			},
		},
		{
			// (c-par) The same budget exhaustion with a parallel fan-out: a
			// canceled context with Workers=4 must drain the worker pool
			// cleanly and surface the same flagged-partial contract as the
			// serial path — the partial is the contiguous prefix of completed
			// shards, never a torn shard.
			Name:          "canceled-parallel-decoder-mc",
			WantTruncated: true,
			Run: func() Outcome {
				res, err := surface.MonteCarloPhenomenologicalCtx(
					canceledCtx(), 5, 0.02, 0.02, 5, 20000, 11,
					simrun.Options{CheckEvery: 1, Workers: 4, ShardSize: 100})
				if err == nil && res.Status.Completed%100 != 0 {
					err = fmt.Errorf("parallel partial kept a torn shard: %d shots", res.Status.Completed)
				}
				return Outcome{Err: err, Status: res.Status,
					Detail: fmt.Sprintf("completed %d/%d shots across 4 workers", res.Status.Completed, res.Status.Requested)}
			},
		},
		{
			// (c-par') Interrupted parallel runs must surface the typed
			// Interrupted sentinel through Status.Err, so exit-code mapping
			// (code 3) works identically for every worker count.
			Name:  "interrupted-parallel-status-err",
			Class: simerr.ErrInterrupted,
			Run: func() Outcome {
				res, err := surface.MonteCarloLogicalErrorCtx(
					canceledCtx(), 3, 0.01, 5000, 7,
					simrun.Options{CheckEvery: 1, Workers: 4, ShardSize: 64})
				if err != nil {
					return Outcome{Err: err, Detail: "unexpected hard error from canceled parallel run"}
				}
				return Outcome{Err: res.Status.Err(), Status: res.Status,
					Detail: fmt.Sprintf("stop reason %q", res.Status.StopReason)}
			},
		},
		{
			// A negative worker count is a configuration fault, rejected at
			// the Options boundary before any goroutine is spawned.
			Name:  "invalid-worker-count",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				_, err := surface.MonteCarloLogicalErrorCtx(
					context.Background(), 3, 0.01, 1000, 3, simrun.Options{Workers: -2})
				return Outcome{Err: err, Detail: "Workers=-2 into the sharded engine"}
			},
		},
		{
			// A negative shard size likewise: shard planning must not be
			// reachable with a nonsense layout.
			Name:  "invalid-shard-size",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				_, err := surface.MonteCarloUnionFindCtx(
					context.Background(), 3, 0.01, 1000, 3, simrun.Options{ShardSize: -5})
				return Outcome{Err: err, Detail: "ShardSize=-5 into the sharded engine"}
			},
		},
		{
			// (c'') An infeasible convergence floor — MinShots above the
			// capped budget — must be rejected as ErrBudgetInfeasible before
			// any shots are spent.
			Name:  "infeasible-shot-budget",
			Class: simerr.ErrBudgetInfeasible,
			Run: func() Outcome {
				_, err := surface.MonteCarloLogicalErrorCtx(
					context.Background(), 3, 0.01, 10000, 3,
					simrun.Options{MaxShots: 100, MinShots: 5000, TargetRelStdErr: 0.1})
				return Outcome{Err: err, Detail: "MinShots 5000 against a 100-shot cap"}
			},
		},
		{
			// (d) Forced non-convergence: a zero-error-rate channel never
			// produces a failure event, so the relative-standard-error guard
			// can never fire; the run must exhaust its budget and report
			// Converged=false rather than spin forever or claim success.
			Name:            "forced-non-convergence",
			WantUnconverged: true,
			Run: func() Outcome {
				res, err := surface.MonteCarloLogicalErrorCtx(
					context.Background(), 3, 0, 2000, 5,
					simrun.Options{TargetRelStdErr: 0.05, MinShots: 100, CheckEvery: 50})
				return Outcome{Err: err, Status: res.Status,
					Detail: fmt.Sprintf("stop reason %q after %d shots", res.Status.StopReason, res.Status.Completed)}
			},
		},
		{
			// Invalid scalability options: an even code distance is a
			// configuration fault, typed accordingly.
			Name:  "invalid-scalability-distance",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				opt := scalability.DefaultOptions()
				opt.Distance = 4 // the injected fault
				_, _, err := scalability.AnalyzeDesigns(context.Background(), microarch.AllDesigns(), opt)
				return Outcome{Err: err, Detail: "even distance into AnalyzeDesigns"}
			},
		},
		{
			// Corrupted readout configuration: a negative decision range is
			// rejected by the multi-round boundary.
			Name:  "invalid-readout-range",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				cfg := readout.DefaultMultiRoundConfig()
				cfg.Range = math.NaN() // the injected fault
				_, err := readout.MultiRoundErrorCtx(context.Background(),
					readout.DefaultChain(), readout.DefaultTiming(), cfg, simrun.Options{})
				return Outcome{Err: err, Detail: "NaN decision range into MultiRoundErrorCtx"}
			},
		},
		{
			// (e) A service job canceled mid-flight (drain, deadline) must
			// finish DONE with a Truncated partial body through the job
			// manager — and that partial must NEVER enter the
			// content-addressed cache, where it would be replayed as if
			// complete to every future identical request.
			Name:          "canceled-service-job-partial",
			WantTruncated: true,
			Run: func() Outcome {
				cache := rescache.New(8)
				m := jobs.NewManager(jobs.Config{
					Workers: 1, Cache: cache, BaseContext: canceledCtx(),
				})
				m.Start()
				key, err := rescache.KeyFor("surface.mc", map[string]any{"distance": 5}, 11, 100)
				if err != nil {
					return Outcome{Err: err, Detail: "keying failed"}
				}
				snap, _, err := m.Submit(jobs.KindSurfaceMC, key, nil,
					func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
						res, err := surface.MonteCarloPhenomenologicalCtx(ctx, 5, 0.02, 0.02, 5, 20000, 11,
							simrun.Options{CheckEvery: 1, ShardSize: 100, Progress: progress})
						if err != nil {
							return nil, simrun.Status{}, err
						}
						body, merr := json.Marshal(res)
						return body, res.Status, merr
					})
				if err != nil {
					return Outcome{Err: err, Detail: "submit refused"}
				}
				final, err := m.Wait(context.Background(), snap.ID)
				drainErr := m.Drain(context.Background())
				if err != nil {
					return Outcome{Err: err, Detail: "wait failed"}
				}
				if drainErr != nil {
					return Outcome{Err: drainErr, Detail: "drain failed"}
				}
				var st simrun.Status
				if final.Status != nil {
					st = *final.Status
				}
				out := Outcome{Status: st,
					Detail: fmt.Sprintf("job state %s after %d/%d shots", final.State, st.Completed, st.Requested)}
				switch {
				case final.State != jobs.StateDone:
					out.Err = fmt.Errorf("canceled job finished %s (%s)", final.State, final.Error)
				case len(final.Result) == 0:
					out.Err = fmt.Errorf("canceled job lost its partial result body")
				case cache.Contains(key):
					out.Err = fmt.Errorf("truncated partial entered the result cache")
				}
				return out
			},
		},
		{
			// (e') A corrupted cache entry — bytes flipped underneath the
			// index — must be detected by checksum verification on Get,
			// counted, and dropped so the next submission recomputes; the
			// corrupted bytes must never be served.
			Name: "corrupted-cache-entry",
			Run: func() Outcome {
				c := rescache.New(4)
				key, err := rescache.KeyFor("surface.mc", map[string]any{"distance": 5}, 1, 64)
				if err != nil {
					return Outcome{Err: err, Detail: "keying failed"}
				}
				body := []byte(`{"logical_error_rate":0.125}`)
				c.Put(key, "surface.mc", body)
				if !c.Tamper(key, func(b []byte) { b[0] ^= 0xff }) { // the injected fault
					return Outcome{Err: fmt.Errorf("tamper hook found no entry")}
				}
				if served, ok := c.Get(key); ok {
					return Outcome{Err: fmt.Errorf("corrupted entry was served: %q", served)}
				}
				if st := c.Stats(); st.Corruptions != 1 {
					return Outcome{Err: fmt.Errorf("corruption count %d, want 1", st.Corruptions)}
				}
				// Recompute-and-refill: a fresh Put serves cleanly again.
				c.Put(key, "surface.mc", body)
				served, ok := c.Get(key)
				if !ok || !bytes.Equal(served, body) {
					return Outcome{Err: fmt.Errorf("recomputed entry not served (hit=%v)", ok)}
				}
				return Outcome{Detail: "corrupted entry detected, dropped and recomputed; never served"}
			},
		},
		{
			// (f) A torn checkpoint file — the crash hit mid-write, or the
			// filesystem truncated the snapshot — must be rejected as a typed
			// configuration error when a resume is attempted. Replaying half
			// a snapshot would silently skew the committed prefix.
			Name:  "torn-checkpoint-file",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				dir, err := os.MkdirTemp("", "faultinject-torn-*")
				if err != nil {
					return Outcome{Err: fmt.Errorf("tempdir: %w", err)}
				}
				defer os.RemoveAll(dir)
				meta := checkpoint.Meta{
					Kind: "surface.mc", Key: "k-torn", Seed: 7, ShardSize: 100, Budget: 1000,
				}
				snap := checkpoint.Snapshot{
					Version: checkpoint.Version, Meta: meta,
					Shards: 3, Shots: 300, Events: 11,
					State: json.RawMessage(`{"failures":11}`), SavedAt: time.Now(),
				}
				path := checkpoint.PathFor(dir, meta.Key)
				if err := checkpoint.Save(path, snap); err != nil {
					return Outcome{Err: fmt.Errorf("save: %w", err)}
				}
				full, err := os.ReadFile(path)
				if err != nil {
					return Outcome{Err: fmt.Errorf("read back: %w", err)}
				}
				// The injected fault: tear the file mid-payload.
				if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
					return Outcome{Err: fmt.Errorf("tear: %w", err)}
				}
				var opt simrun.Options
				_, loaded, err := checkpoint.Attach(&opt, dir, true, 1, meta)
				if err == nil {
					return Outcome{Err: fmt.Errorf("torn snapshot accepted for resume (loaded=%v)", loaded != nil)}
				}
				return Outcome{Err: err,
					Detail: fmt.Sprintf("snapshot torn to %d of %d bytes", len(full)/2, len(full))}
			},
		},
		{
			// (f') A journal entry whose checkpoint never made it to disk —
			// the daemon crashed after the WAL append but before the first
			// shard committed. Recovery must run the job cold to completion
			// and resolve the journal entry; a missing snapshot is a cold
			// start, never an error.
			Name: "journal-entry-missing-checkpoint",
			Run: func() Outcome {
				dir, err := os.MkdirTemp("", "faultinject-wal-*")
				if err != nil {
					return Outcome{Err: fmt.Errorf("tempdir: %w", err)}
				}
				defer os.RemoveAll(dir)
				key, err := rescache.KeyFor("surface.mc", map[string]any{"distance": 3}, 7, 100)
				if err != nil {
					return Outcome{Err: err, Detail: "keying failed"}
				}
				// Previous life: the submit hit the WAL, then the process died
				// before any checkpoint was flushed.
				j, err := jobs.OpenJournal(dir + "/journal.wal")
				if err != nil {
					return Outcome{Err: fmt.Errorf("open journal: %w", err)}
				}
				if err := j.Append(jobs.OpSubmit, jobs.KindSurfaceMC, key, nil); err != nil {
					return Outcome{Err: fmt.Errorf("append: %w", err)}
				}
				j.Close()

				// Next life: replay finds the pending job, no snapshot exists.
				j2, err := jobs.OpenJournal(dir + "/journal.wal")
				if err != nil {
					return Outcome{Err: fmt.Errorf("reopen journal: %w", err)}
				}
				defer j2.Close()
				pend := j2.Pending()
				if len(pend) != 1 {
					return Outcome{Err: fmt.Errorf("replay found %d pending jobs, want 1", len(pend))}
				}
				meta := checkpoint.Meta{
					Kind: string(jobs.KindSurfaceMC), Key: string(key),
					Seed: 7, ShardSize: 100, Budget: 1000,
				}
				opt := simrun.Options{ShardSize: 100}
				sv, loaded, err := checkpoint.Attach(&opt, dir, true, 1, meta)
				if err != nil {
					return Outcome{Err: err, Detail: "missing snapshot must not be an error"}
				}
				if loaded != nil {
					return Outcome{Err: fmt.Errorf("resume loaded a snapshot that cannot exist: %+v", *loaded)}
				}
				res, err := surface.MonteCarloLogicalErrorCtx(context.Background(), 3, 0.01, 1000, 7, opt)
				if err != nil {
					return Outcome{Err: err, Detail: "cold recovery run failed"}
				}
				if res.Status.Truncated {
					return Outcome{Err: fmt.Errorf("cold recovery run truncated: %+v", res.Status)}
				}
				if serr := j2.Append(jobs.OpDone, jobs.KindSurfaceMC, key, nil); serr != nil {
					return Outcome{Err: fmt.Errorf("resolve journal entry: %w", serr)}
				}
				if rem := j2.Pending(); len(rem) != 0 {
					return Outcome{Err: fmt.Errorf("journal entry not resolved: %+v", rem)}
				}
				return Outcome{Status: res.Status,
					Detail: fmt.Sprintf("cold recovery completed %d/%d shots, %d checkpoint saves",
						res.Status.Completed, res.Status.Requested, sv.Saves())}
			},
		},
		{
			// (f'') A snapshot that does not belong to the requested run — a
			// stale file for a different seed landed under the same path —
			// must be refused as a typed configuration error. Resuming it
			// would splice shard prefixes from two different RNG streams.
			Name:  "checkpoint-request-key-mismatch",
			Class: simerr.ErrInvalidConfig,
			Run: func() Outcome {
				dir, err := os.MkdirTemp("", "faultinject-mismatch-*")
				if err != nil {
					return Outcome{Err: fmt.Errorf("tempdir: %w", err)}
				}
				defer os.RemoveAll(dir)
				stale := checkpoint.Meta{
					Kind: "surface.mc", Key: "k-shared", Seed: 1, ShardSize: 100, Budget: 1000,
				}
				snap := checkpoint.Snapshot{
					Version: checkpoint.Version, Meta: stale,
					Shards: 2, Shots: 200, Events: 5,
					State: json.RawMessage(`{"failures":5}`), SavedAt: time.Now(),
				}
				if err := checkpoint.Save(checkpoint.PathFor(dir, stale.Key), snap); err != nil {
					return Outcome{Err: fmt.Errorf("save stale snapshot: %w", err)}
				}
				// The injected fault: the incoming run has the same key path
				// but a different seed — the snapshot is not its prefix.
				want := stale
				want.Seed = 2
				var opt simrun.Options
				_, _, err = checkpoint.Attach(&opt, dir, true, 1, want)
				if err == nil {
					return Outcome{Err: fmt.Errorf("mismatched snapshot accepted for resume")}
				}
				return Outcome{Err: err, Detail: "seed-1 snapshot against a seed-2 run"}
			},
		},
		{
			// (g) Trace-buffer overflow: a span buffer far too small for the
			// run must drop spans (counted), never block a worker, and never
			// perturb the Monte-Carlo result — tracing is a pure observer
			// even when saturated.
			Name: "trace-buffer-overflow",
			Run: func() Outcome {
				const (
					d, p, shots, seed = 3, 0.05, 6400, 11
					shardSize         = 64 // 100 shards >> 4-span buffer
				)
				opt := simrun.Options{Workers: 4, ShardSize: shardSize}
				plain, err := surface.MonteCarloLogicalErrorCtx(
					context.Background(), d, p, shots, seed, opt)
				if err != nil {
					return Outcome{Err: fmt.Errorf("untraced baseline failed: %w", err)}
				}
				tr := obs.NewTracer(obs.TracerConfig{ID: "overflow", MaxSpans: 4}) // the injected fault
				traced, err := surface.MonteCarloLogicalErrorCtx(
					obs.WithTracer(context.Background(), tr), d, p, shots, seed, opt)
				if err != nil {
					return Outcome{Err: fmt.Errorf("traced run failed: %w", err), Status: traced.Status}
				}
				if traced != plain {
					return Outcome{Err: fmt.Errorf("saturated tracer perturbed the result:\nplain  %+v\ntraced %+v", plain, traced)}
				}
				if tr.Dropped() == 0 {
					return Outcome{Err: fmt.Errorf("100-shard run through a 4-span buffer dropped nothing")}
				}
				if tr.Len() > 4 {
					return Outcome{Err: fmt.Errorf("span buffer exceeded its bound: %d > 4", tr.Len())}
				}
				snap := tr.Snapshot()
				if err := snap.Check(); err != nil {
					return Outcome{Err: fmt.Errorf("overflowed trace fails validation: %w", err)}
				}
				return Outcome{Status: traced.Status,
					Detail: fmt.Sprintf("result bit-identical, %d spans kept, %d dropped", tr.Len(), tr.Dropped())}
			},
		},
		{
			// (g') Trace-export write failure: the trace file landing on an
			// unwritable path must surface as an ordinary error from the
			// export boundary — the traced run's result stays valid and the
			// caller's exit code is unchanged (the CLIs log a warning and
			// keep going; this scenario pins the API contract they rely on).
			Name: "trace-export-write-failure",
			Run: func() Outcome {
				tr := obs.NewTracer(obs.TracerConfig{ID: "export-fail"})
				res, err := surface.MonteCarloLogicalErrorCtx(
					obs.WithTracer(context.Background(), tr), 3, 0.05, 640, 11,
					simrun.Options{ShardSize: 64})
				if err != nil {
					return Outcome{Err: fmt.Errorf("traced run failed: %w", err)}
				}
				if res.Status.Truncated || res.Status.Completed != 640 {
					return Outcome{Err: fmt.Errorf("traced run incomplete: %+v", res.Status)}
				}
				dir, err := os.MkdirTemp("", "faultinject-export-*")
				if err != nil {
					return Outcome{Err: fmt.Errorf("tempdir: %w", err)}
				}
				defer os.RemoveAll(dir)
				// The injected fault: the export path's parent is a regular
				// file, so os.Create must fail.
				blocker := dir + "/not-a-dir"
				if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
					return Outcome{Err: fmt.Errorf("write blocker: %w", err)}
				}
				exportErr := obs.WriteChromeFile(blocker+"/trace.json", tr)
				if exportErr == nil {
					return Outcome{Err: fmt.Errorf("export into a non-directory succeeded")}
				}
				// The run's own outcome is untouched by the failed export.
				if res.Rate() < 0 || res.Shots != 640 {
					return Outcome{Err: fmt.Errorf("result corrupted after export failure: %+v", res)}
				}
				return Outcome{Status: res.Status,
					Detail: fmt.Sprintf("export failed cleanly (%v); run result intact", exportErr)}
			},
		},
	}, append(distScenarios(), append(dseScenarios(), chaosScenarios()...)...)...)
}
