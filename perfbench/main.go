// Command perfbench is QIsim's end-to-end benchmark. It drives one
// workload in-process for a fixed wall-clock window and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers (set-up time,
// throughput, latency percentiles, CPU, allocation, peak RSS and the
// reproduction scorecard); with -trace 1 the run records spans around every
// call it makes into a layer, profiles the CPU, and prints per-layer
// numbers instead. See README.md for the workloads and the metric map.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload serve-mc --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// maxOps, when positive, ends the timed window after that many ops
	// (the self-test's smoke mode).
	maxOps int
	// workDir holds every file the run writes: the data dirs and the
	// traced run's Chrome trace, <workDir>/<workload>.trace.json.
	workDir string
	// tamper, when set, may rewrite the output of op i before its check
	// runs (the self-test uses it to prove a wrong result counts as failed).
	tamper func(i int, out []byte) []byte
}

func main() {
	cfg := config{workDir: filepath.Join(".bench_build", "perfbench-work")}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (drives every generated input)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.setups = setups[cfg.workload]
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation and returns its result line. The
// human-readable table and host diagnostics go to out.
func run(ctx context.Context, cfg config, out io.Writer) (result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 || cfg.setups < 1 {
		return result{}, fmt.Errorf("-seconds and the set-up count must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	if cfg.workload != "paper-repro" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(servingProcs))
	}
	host0 := readHost()
	p := &probe{}
	w, setupS, err := setUp(ctx, mk, cfg, dir, p)
	if err != nil {
		return result{}, err
	}
	defer w.close()

	m, err := measure(ctx, cfg, w, p)
	if err != nil {
		return result{}, err
	}
	// Checks that need the whole window's output (the fleet's standalone
	// recomputation) run after it, untimed.
	bad, err := w.verify(ctx)
	if err != nil {
		return result{}, err
	}
	m.failed += bad
	score := scorecard()
	correct := m.failed == 0 && score <= scorecardBand

	var metrics map[string]metric
	if cfg.trace {
		metrics, err = p.layerMetrics(w, m)
		if err != nil {
			return result{}, err
		}
	} else {
		metrics = endToEnd(m, setupS, score)
	}
	printReport(out, cfg, m, metrics, host0, readHost())
	return result{Correct: correct, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, nil
}

// setUp builds the workload cfg.setups times, tearing down every instance
// but the last, and returns the kept instance with the median set-up time.
func setUp(ctx context.Context, mk func() workload, cfg config, dir string, p *probe) (workload, float64, error) {
	times := make([]float64, 0, cfg.setups)
	var w workload
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		err := w.setup(ctx, env{cfg: cfg, dir: sub, probe: p})
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
	}
	return w, quantile(times, 0.5), nil
}

// setups is how many times a run sets each workload up. A paper-repro
// set-up is one reference reproduction (about 1.2 s); a serving set-up is
// a server start plus warm-up of a few hundred ms at most, whose median
// needs more samples to hold still.
var setups = map[string]int{"paper-repro": 3, "serve-mc": 11, "serve-hits": 11, "fleet": 11}

// servingProcs is GOMAXPROCS for the serving workloads. Their one caller
// keeps one op in flight, so a second P only adds cross-vCPU wake-ups, and
// on a virtual machine those cost more than a cached hit and show up as
// host steal that swings run to run. paper-repro keeps the default (one P
// per CPU): its simulation is single-threaded and the GC uses the other.
const servingProcs = 1

// printReport writes the human-readable table: every metric with its unit,
// the op counts, and the host-noise diagnostics (never gated).
func printReport(out io.Writer, cfg config, m measured, metrics map[string]metric, h0, h1 hostSample) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g mode=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(out, "ops: attempted=%d failed=%d timed=%d window=%.3fs\n", m.attempted, m.failed, len(m.lat), m.elapsed)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d steal_frac=%.4f load1=%.2f load5=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), h1.stealSince(h0), h1.load1, h1.load5)
}
