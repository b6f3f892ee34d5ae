package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qisim/internal/experiments"
	"qisim/internal/obs"
)

// workload is one benchmark scenario. The runner calls setup (timed as
// setup_s), then op in a closed loop for the timed window, then verify, then
// close. One caller drives op: each op waits for its reply.
type workload interface {
	setup(ctx context.Context, e env) error
	// op runs one operation and checks its output. The returned class
	// labels the op for per-class latencies (e.g. "hit", "surface.mc");
	// a non-nil error counts the op as failed.
	op(ctx context.Context, i int) (class string, err error)
	// verify runs checks that need the whole window's output and returns
	// how many ops they found wrong.
	verify(ctx context.Context) (failed int, err error)
	close()
}

// interOp is implemented by workloads that do untimed-as-op work between
// ops (serve-hits' /metrics scrapes); it runs before op i is timed.
type interOp interface {
	beforeOp(ctx context.Context, i int) error
}

// env is what set-up receives.
type env struct {
	cfg config
	// dir is this set-up's private directory (data dirs live here).
	dir   string
	probe *probe
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"paper-repro": func() workload { return &paperRepro{} },
	"serve-mc":    func() workload { return &serveMC{} },
	"serve-hits":  func() workload { return &serveHits{} },
	"fleet":       func() workload { return &fleet{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scorecardBand is the repository's accepted worst deviation factor from
// the paper's headline numbers (experiments_test.go pins the same band).
const scorecardBand = 2.2

// scorecard returns the reproduction's worst deviation from the paper.
func scorecard() float64 { return experiments.WorstHeadlineRatio() }

// measured is what the timed window produced.
type measured struct {
	attempted, failed int
	// lat holds every op's latency in ms; class its op class.
	lat   []float64
	class []string
	// elapsed runs from the window's start to the end of its last op.
	elapsed float64
	res     resources
	// maxRSSKB is the largest resident set sampled during the window.
	maxRSSKB int64
	// baseMeanMS and tracedMeanMS are the untraced and traced parts' mean
	// op latencies of a traced run (zero otherwise).
	baseMeanMS, tracedMeanMS float64
}

// resources is a snapshot of the process's own counters.
type resources struct {
	cpuS           float64
	totalAlloc     uint64
	mallocs, numGC uint64
	ioWriteBytes   int64
	wall           time.Time
}

func readResources() resources {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpuS:         tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		totalAlloc:   ms.TotalAlloc,
		mallocs:      ms.Mallocs,
		numGC:        uint64(ms.NumGC),
		ioWriteBytes: procIOWriteBytes(),
		wall:         time.Now(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// measure runs the closed loop for the configured window. A traced run
// spends its first third untraced (the overhead baseline) and traces the
// rest; only the traced part feeds the per-layer metrics.
func measure(ctx context.Context, cfg config, w workload, p *probe) (measured, error) {
	var m measured
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	tracedFrom := -1
	var r0 resources
	var rssAt time.Time
	if !cfg.trace {
		// Collect and return to the OS what set-up left behind, so the
		// window's resident set shows only what the window holds.
		debug.FreeOSMemory()
		r0 = readResources()
		start = r0.wall
		m.maxRSSKB, rssAt = vmRSSKB(), start
	}
	for i := 0; ; i++ {
		if cfg.maxOps > 0 && i >= cfg.maxOps {
			break
		}
		if cfg.maxOps <= 0 && i > 0 && time.Since(start) >= window {
			break
		}
		if cfg.trace && tracedFrom < 0 && (time.Since(start) >= window/3 || (cfg.maxOps > 0 && i >= cfg.maxOps/2)) {
			if err := p.start(w); err != nil {
				return m, err
			}
			tracedFrom = i
		}
		opCtx := ctx
		if tr := p.tracer(); tr != nil {
			opCtx = obs.WithTracer(ctx, tr)
		}
		if b, ok := w.(interOp); ok {
			if err := b.beforeOp(opCtx, i); err != nil {
				return m, err
			}
		}
		opCtx, sp := obs.StartSpan(opCtx, "op", obs.Int("i", i))
		t0 := time.Now()
		class, err := w.op(opCtx, i)
		m.lat = append(m.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		sp.SetAttr(obs.String("class", class))
		sp.End()
		m.class = append(m.class, class)
		m.attempted++
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s) failed: %v\n", i, class, err)
		}
		if !cfg.trace && time.Since(rssAt) >= rssEvery {
			m.maxRSSKB, rssAt = max(m.maxRSSKB, vmRSSKB()), time.Now()
		}
	}
	if cfg.trace {
		if tracedFrom < 0 {
			// Too short to split: trace nothing, report the untraced run.
			tracedFrom = len(m.lat)
			if err := p.start(w); err != nil {
				return m, err
			}
		}
		if err := p.stop(cfg, w, len(m.lat)-tracedFrom); err != nil {
			return m, err
		}
		m.baseMeanMS = mean(m.lat[:tracedFrom])
		m.tracedMeanMS = mean(m.lat[tracedFrom:])
		m.lat, m.class = m.lat[tracedFrom:], m.class[tracedFrom:]
		m.elapsed = time.Since(start).Seconds()
		return m, nil
	}
	r1 := readResources()
	m.elapsed = r1.wall.Sub(start).Seconds()
	m.res = resources{
		cpuS:       r1.cpuS - r0.cpuS,
		totalAlloc: r1.totalAlloc - r0.totalAlloc,
		mallocs:    r1.mallocs - r0.mallocs,
		numGC:      r1.numGC - r0.numGC,
	}
	m.maxRSSKB = max(m.maxRSSKB, vmRSSKB())
	return m, nil
}

// rssEvery is how often the window samples its resident set.
const rssEvery = 50 * time.Millisecond

// vmRSSKB reads the process's current resident set (VmRSS in
// /proc/self/status) in KiB, 0 when unavailable.
func vmRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(v) // "<n> kB"
			if len(f) == 0 {
				return 0
			}
			n, _ := strconv.ParseInt(f[0], 10, 64)
			return n
		}
	}
	return 0
}

// endToEnd turns an untraced window into the end-to-end metrics.
func endToEnd(m measured, setupS, score float64) map[string]metric {
	n := float64(len(m.lat))
	return map[string]metric{
		"setup_s":               {setupS, "s"},
		"ops_per_s":             {n / m.elapsed, "1/s"},
		"latency_p50_ms":        {quantile(m.lat, 0.5), "ms"},
		"latency_p90_ms":        {quantile(m.lat, 0.9), "ms"},
		"cpu_ms_per_op":         {1000 * m.res.cpuS / n, "ms"},
		"alloc_kb_per_op":       {float64(m.res.totalAlloc) / 1024 / n, "KiB"},
		"max_rss_mb":            {float64(m.maxRSSKB) / 1024, "MiB"},
		"scorecard_worst_ratio": {score, "ratio"},
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostSample is one reading of the host-noise counters.
type hostSample struct {
	steal, total uint64
	load1, load5 float64
}

// readHost reads the aggregate CPU line of /proc/stat and /proc/loadavg.
// Missing files leave zeros: these numbers are diagnostics, never gated.
func readHost() hostSample {
	var h hostSample
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		for i, v := range f[1:] {
			n, _ := strconv.ParseUint(v, 10, 64)
			h.total += n
			if i == 7 { // user nice system idle iowait irq softirq steal
				h.steal = n
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(b))
		if len(f) >= 2 {
			h.load1, _ = strconv.ParseFloat(f[0], 64)
			h.load5, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	return h
}

// stealSince is the share of host CPU time stolen between h0 and h.
func (h hostSample) stealSince(h0 hostSample) float64 {
	if h.total <= h0.total {
		return 0
	}
	return float64(h.steal-h0.steal) / float64(h.total-h0.total)
}

// procIOWriteBytes reads write_bytes from /proc/self/io: bytes this process
// caused to be sent to the storage layer (0 when unavailable).
func procIOWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}
