// Command qisim is the QIsim scalability-analysis CLI: it evaluates the QCI
// design points of the paper's Section 6 against the refrigerator budgets
// and logical-error targets, reporting how many physical qubits each design
// supports and what limits it.
//
// Usage:
//
//	qisim [-timeout d] [-json] designs            list the named design points
//	qisim [-timeout d] [-json] analyze [name ...] analyze designs (default: all)
//	qisim [-timeout d] [-json] sweep <name> <N ...>  per-stage utilisation at qubit counts
//	qisim [-timeout d] [-json] mc [flags]         phenomenological Monte-Carlo run
//	qisim scorecard                               reproduction headlines vs the paper
//	qisim lattice <design> <d>                    logical CNOT/memory estimate
//
// SIGINT/SIGTERM and -timeout cancel the run cooperatively: partial results
// computed so far are still printed (flagged "truncated" in -json output)
// and the process exits with code 3 (interrupted). Other failures exit with
// the per-class codes of internal/simerr (4 invalid config, 5 numerical,
// 6 budget infeasible, 7 unsupported QASM).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"qisim/internal/buildinfo"
	"qisim/internal/checkpoint"
	"qisim/internal/experiments"
	"qisim/internal/lattice"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
	"qisim/internal/surface"
	"qisim/internal/wiring"
)

// logger is the process-wide structured logger, installed by main before any
// subcommand runs. Checkpoint/resume notices and warnings go through it so
// -log-format=json keeps stderr machine-parseable.
var logger = obs.Discard()

func main() {
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = none)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of tables (analyze, sweep, mc)")
	workers := flag.Int("workers", 0, "parallel worker goroutines for mc runs (0 = all cores, 1 = serial; results are identical for every value)")
	traceOut := flag.String("trace-out", "", "record a span trace of the run and write it as Chrome trace_event JSON to this file")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("qisim"))
		return
	}
	var err error
	logger, err = obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qisim:", err)
		os.Exit(simerr.ExitCode(simerr.Invalidf("%v", err)))
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(simerr.ExitUsage)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "qisim: -workers must be >= 0")
		os.Exit(simerr.ExitUsage)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -trace-out arms the span tracer for the whole run: a root "cli" span
	// names the subcommand, and every traced layer underneath (sharded engine,
	// checkpointing) hangs off it via the context.
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer(obs.TracerConfig{ID: "qisim"})
		ctx = obs.WithTracer(ctx, tr)
	}
	runErr := func() error {
		if tr != nil {
			span := tr.Start("cli", nil,
				obs.String("cmd", args[0]), obs.String("argv", strings.Join(args[1:], " ")))
			ctx = obs.ContextWithSpan(ctx, tr, span)
			defer span.End()
		}
		return run(ctx, args, *jsonOut, *workers)
	}()
	// The trace is best-effort observability: an export failure is a warning
	// and never changes the run's own exit code (the result already printed).
	if tr != nil {
		if err := obs.WriteChromeFile(*traceOut, tr); err != nil {
			logger.Warn("trace export failed; run result unaffected", "err", err, "path", *traceOut)
		} else {
			logger.Debug("trace written", "path", *traceOut, "spans", tr.Len(), "dropped", tr.Dropped())
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "qisim:", runErr)
		os.Exit(simerr.ExitCode(runErr))
	}
}

func run(ctx context.Context, args []string, jsonOut bool, workers int) error {
	switch args[0] {
	case "designs":
		for _, d := range microarch.AllDesigns() {
			fmt.Println(d)
		}
		return nil
	case "analyze":
		return analyze(ctx, args[1:], jsonOut)
	case "sweep":
		if len(args) < 3 {
			return simerr.Invalidf("sweep requires a design name and at least one qubit count")
		}
		return sweep(ctx, args[1], args[2:], jsonOut)
	case "mc":
		return mc(ctx, args[1:], jsonOut, workers)
	case "scorecard":
		fmt.Print(experiments.HeadlineTable())
		return nil
	case "lattice":
		if len(args) != 3 {
			return simerr.Invalidf("lattice requires <design> <distance>")
		}
		return latticeCmd(args[1], args[2])
	default:
		// An unrecognized subcommand is a configuration error (exit 4), not a
		// "called with no arguments" usage error (exit 2): the caller asked
		// for something specific and we could not honour it.
		usage()
		return simerr.Invalidf("unknown subcommand %q", args[0])
	}
}

// latticeCmd estimates a logical CNOT and a 1,000-round memory on a design.
func latticeCmd(name, distStr string) error {
	d, ok := microarch.DesignByName(name)
	if !ok {
		return simerr.Invalidf("unknown design %q", name)
	}
	dist, err := strconv.Atoi(distStr)
	if err != nil {
		return simerr.Invalidf("bad distance %q", distStr)
	}
	layout, err := lattice.NewLayoutChecked(3, dist)
	if err != nil {
		return err
	}
	cnot := lattice.CNOTProgram(layout, 0, 1, 2)
	ex, err := lattice.Execute(cnot, d)
	if err != nil {
		return err
	}
	fmt.Printf("logical CNOT at d=%d on %s:\n", dist, d.Name)
	fmt.Printf("  rounds %d, wall clock %.2f µs, p_L %.3g/patch/round, success %.8f\n",
		ex.Stats.TotalRounds, ex.WallClock*1e6, ex.LogicalErr, ex.Success)
	mem := lattice.MemoryProgram(lattice.NewLayout(2, dist), 1000)
	need := lattice.RequiredDistance(mem, d, 0.99)
	fmt.Printf("distance needed for 99%% over 1,000 memory rounds: d = %d\n", need)
	return nil
}

func analyze(ctx context.Context, names []string, jsonOut bool) error {
	ds := microarch.AllDesigns()
	if len(names) > 0 {
		ds = nil
		for _, n := range names {
			d, ok := microarch.DesignByName(n)
			if !ok {
				return simerr.Invalidf("unknown design %q (see `qisim designs`)", n)
			}
			ds = append(ds, d)
		}
	}
	as, status, err := scalability.AnalyzeDesigns(ctx, ds, scalability.DefaultOptions())
	if err != nil {
		return err
	}
	if jsonOut {
		if err := scalability.WriteJSON(os.Stdout, as); err != nil {
			return err
		}
	} else {
		fmt.Print(scalability.Table(as))
	}
	return status.Err() // exit 3 with the partial table already printed
}

func sweep(ctx context.Context, name string, counts []string, jsonOut bool) error {
	d, ok := microarch.DesignByName(name)
	if !ok {
		return simerr.Invalidf("unknown design %q", name)
	}
	var ns []int
	for _, c := range counts {
		n, err := strconv.Atoi(c)
		if err != nil {
			return simerr.Invalidf("bad qubit count %q", c)
		}
		ns = append(ns, n)
	}
	res, err := scalability.SweepCtx(ctx, d, ns, scalability.DefaultOptions())
	if err != nil {
		return err
	}
	if jsonOut {
		if err := emitJSON(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("%10s %10s %10s %10s %12s %12s %9s\n", "qubits", "4K", "100mK", "20mK", "p_L", "target", "feasible")
		for _, p := range res.Points {
			fmt.Printf("%10d %9.1f%% %9.1f%% %9.1f%% %12.3g %12.3g %9v\n",
				p.Qubits,
				100*p.Utilization[wiring.Stage4K],
				100*p.Utilization[wiring.Stage100mK],
				100*p.Utilization[wiring.Stage20mK],
				p.LogicalError, p.Target, p.Feasible)
		}
		if res.Status.Truncated {
			fmt.Printf("(truncated after %d/%d points)\n", res.Status.Completed, res.Status.Requested)
		}
	}
	return res.Status.Err()
}

// mc runs the phenomenological surface-code Monte-Carlo decoder with full
// cancellation support — the CLI face of the context-aware simulation layer.
// On SIGINT or timeout it emits the partial estimate (valid JSON with
// status.truncated=true under -json) and exits with code 3.
//
// With -checkpoint-dir the committed shard prefix is persisted at shard
// boundaries (and flushed once more when the run stops, so ^C loses
// nothing); -resume restarts from that snapshot and produces output
// byte-identical to an uninterrupted run. The snapshot is keyed by the
// normalized request (the same content address qisimd uses), so resuming
// with different parameters is refused with a typed error rather than
// silently mixing runs.
func mc(ctx context.Context, args []string, jsonOut bool, workers int) error {
	fs := flag.NewFlagSet("mc", flag.ContinueOnError)
	d := fs.Int("d", 11, "code distance (odd, >= 3)")
	p := fs.Float64("p", 0.005, "data error probability per round")
	q := fs.Float64("q", 0.005, "measurement error probability per round")
	rounds := fs.Int("rounds", 0, "syndrome rounds (0 = d rounds)")
	shots := fs.Int("shots", 200000, "shot budget")
	seed := fs.Int64("seed", 1, "RNG seed")
	relSE := fs.Float64("rel-se", 0, "convergence target: stop once the relative std-err drops below this (0 = run full budget)")
	mcWorkers := fs.Int("workers", workers, "parallel worker goroutines (0 = all cores, 1 = serial; the estimate is identical for every value)")
	shardSize := fs.Int("shard-size", 0, "shots per shard (0 = engine default; part of the RNG stream layout and the checkpoint identity)")
	ckptDir := fs.String("checkpoint-dir", "", "persist crash-safe checkpoints of the committed shard prefix in this directory")
	resume := fs.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir (bit-identical to an uninterrupted run)")
	ckptEvery := fs.Int("checkpoint-every", 1, "write a checkpoint every N committed shards (the final flush always writes)")
	if err := fs.Parse(args); err != nil {
		return simerr.Invalidf("mc: %v", err)
	}
	r := *rounds
	if r == 0 {
		r = *d
	}
	opt := simrun.Options{TargetRelStdErr: *relSE, Workers: *mcWorkers, ShardSize: *shardSize}
	sv, err := wireCheckpoint(&opt, *ckptDir, *resume, *ckptEvery, "surface.mc",
		map[string]any{"distance": *d, "p": *p, "q": *q, "rounds": r, "shots": *shots, "rel_se": *relSE},
		*seed, *shots)
	if err != nil {
		return err
	}
	res, err := surface.MonteCarloPhenomenologicalCtx(ctx, *d, *p, *q, r, *shots, *seed, opt)
	reportCheckpoint(sv, err == nil && res.Status.Truncated)
	if err != nil {
		return err
	}
	if jsonOut {
		out := struct {
			Distance int     `json:"distance"`
			P        float64 `json:"p"`
			Q        float64 `json:"q"`
			Rounds   int     `json:"rounds"`
			Rate     float64 `json:"logical_error_rate"`
			surface.DecoderResult
		}{*d, *p, *q, r, res.Rate(), res}
		if err := emitJSON(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("d=%d p=%g q=%g rounds=%d: p_L = %.4g (%d failures / %d shots)\n",
			*d, *p, *q, r, res.Rate(), res.Failures, res.Shots)
		if res.Status.Truncated {
			fmt.Printf("(truncated: %s after %d/%d shots — partial estimate)\n",
				res.Status.StopReason, res.Status.Completed, res.Status.Requested)
		} else if res.Status.Converged {
			fmt.Printf("(converged after %d/%d shots)\n", res.Status.Completed, res.Status.Requested)
		}
	}
	return res.Status.Err()
}

// wireCheckpoint configures crash-safe checkpointing on opt. The snapshot is
// keyed by the same content address the qisimd result cache uses — kind +
// normalized params + seed + effective shard size — so a checkpoint can only
// ever resume the exact run that wrote it. With dir == "" it is a no-op
// (nil Saver, safe to pass to reportCheckpoint). With resume it loads the
// snapshot at the derived path: a missing file starts cold, a corrupted or
// mismatched file is a typed error (never silently replayed).
func wireCheckpoint(opt *simrun.Options, dir string, resume bool, every int,
	kind string, params map[string]any, seed int64, shots int) (*checkpoint.Saver, error) {
	if dir == "" {
		if resume {
			return nil, simerr.Invalidf("-resume requires -checkpoint-dir")
		}
		return nil, nil
	}
	ss := opt.ShardSize
	if ss <= 0 {
		ss = simrun.DefaultShardSize
	}
	key, err := rescache.KeyFor(kind, params, seed, ss)
	if err != nil {
		return nil, err
	}
	meta := checkpoint.Meta{
		Kind: kind, Key: string(key), Seed: seed, ShardSize: ss, Budget: shots,
		MinShots: opt.MinShots, TargetRelStdErr: opt.TargetRelStdErr,
	}
	sv, snap, err := checkpoint.Attach(opt, dir, resume, every, meta)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		logger.Info("resuming from checkpoint",
			"kind", kind, "shots", snap.Shots, "budget", snap.Meta.Budget, "path", sv.Path)
	}
	return sv, nil
}

// reportCheckpoint surfaces the checkpoint outcome after a run: a write
// failure degraded durability (warning — the run result itself is still
// valid), and a truncated run prints where to resume from.
func reportCheckpoint(sv *checkpoint.Saver, truncated bool) {
	if sv == nil {
		return
	}
	if err := sv.Err(); err != nil {
		logger.Warn("checkpoint durability degraded", "err", err)
		return
	}
	if truncated {
		logger.Info("checkpoint saved — rerun with -resume to continue", "path", sv.Path)
	}
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func usage() {
	fmt.Fprintln(os.Stderr, `qisim — QCI scalability analysis (QIsim reproduction)

  qisim [-timeout d] [-json] designs                         list the named design points
  qisim [-timeout d] [-json] analyze [name ...]              analyze designs (default: all)
  qisim [-timeout d] [-json] sweep <name> <N ...>            per-stage utilisation at qubit counts
  qisim [-timeout d] [-json] [-workers n] mc [flags]         phenomenological MC decoder run
  qisim scorecard                                reproduction headlines vs the paper
  qisim lattice <design> <d>                     logical CNOT/memory estimate on a design

-workers is for mc only: it fans the Monte-Carlo shots out across n
goroutines (0 = all cores, 1 = serial); deterministic sharded RNG makes the
result bit-identical for every worker count. analyze and sweep are plain
loops. SIGINT or -timeout cancels cooperatively: partial results are
printed (flagged truncated in -json) and the exit code is 3.
mc -checkpoint-dir persists crash-safe snapshots of the committed shard
prefix (flushed once more on ^C); mc -resume restarts from that snapshot and
produces output byte-identical to an uninterrupted run. Inspect snapshots
with the qisim-checkpoint tool.
-trace-out=<file> records a span trace of the run (engine, shards, merges,
checkpoints) and writes Chrome trace_event JSON loadable in a trace viewer;
tracing never changes the computed results. -log-level and -log-format
control the structured stderr log (text or json).
Error-class exit codes: 4 invalid config, 5 numerical, 6 budget infeasible,
7 unsupported QASM.`)
}
