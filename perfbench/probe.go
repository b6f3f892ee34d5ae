package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"

	"qisim/internal/dist"
	"qisim/internal/obs"
)

// traceMaxSpans bounds the traced run's span buffer (about 200 bytes a
// span); spans past it are counted as dropped.
const traceMaxSpans = 1 << 20

// pageSize is the unit in which /proc/self/io counts storage writes.
const pageSize = 4096

// probe owns a traced run's instruments: the span tracer, the CPU profile,
// and before/after snapshots of the counters the program exports.
type probe struct {
	tr     atomic.Pointer[obs.Tracer]
	prof   bytes.Buffer
	spans  obs.Trace
	before snapshot
	after  snapshot
	ops    int
	// firstGrantFrom is where the traced part starts in the fleet's
	// first-grant samples.
	firstGrantFrom int
}

// tracer returns the live tracer, nil outside the traced part of a run.
func (p *probe) tracer() *obs.Tracer {
	if p == nil {
		return nil
	}
	return p.tr.Load()
}

// snapshot is one reading of every counter a layer metric differences.
type snapshot struct {
	res          resources
	prom         map[string]float64
	journalBytes int64
	journalLines int64
	workers      dist.WorkerStats
	claims       int64
	granted      int64
}

// served is implemented by workloads that run a qisimd server.
type served interface{ target() *server }

func (p *probe) snap(w workload) (snapshot, error) {
	s := snapshot{res: readResources()}
	if sv, ok := w.(served); ok {
		srv := sv.target()
		prom, err := scrapeProm(srv.url)
		if err != nil {
			return s, err
		}
		s.prom = prom
		if srv.dataDir != "" {
			b, err := os.ReadFile(filepath.Join(srv.dataDir, "journal.wal"))
			if err != nil {
				return s, err
			}
			s.journalBytes = int64(len(b))
			s.journalLines = int64(bytes.Count(b, []byte{'\n'}))
		}
	}
	if f, ok := w.(*fleet); ok {
		s.workers = f.workerStats()
		s.claims, s.granted = f.api.claims.Load(), f.api.granted.Load()
	}
	return s, nil
}

// start begins the traced part: counters are read, the tracer installed
// and the CPU profiler started.
func (p *probe) start(w workload) error {
	var err error
	if p.before, err = p.snap(w); err != nil {
		return err
	}
	if f, ok := w.(*fleet); ok {
		p.firstGrantFrom = len(f.firstGrantMS)
	}
	p.tr.Store(obs.NewTracer(obs.TracerConfig{ID: "perfbench", MaxSpans: traceMaxSpans}))
	return pprof.StartCPUProfile(&p.prof)
}

// stop ends the traced part after ops traced ops and exports the spans as
// a Chrome trace.
func (p *probe) stop(cfg config, w workload, ops int) error {
	pprof.StopCPUProfile()
	tr := p.tr.Swap(nil)
	p.ops = ops
	p.spans = tr.Snapshot()
	var err error
	if p.after, err = p.snap(w); err != nil {
		return err
	}
	if err := obs.WriteChromeFile(filepath.Join(cfg.workDir, cfg.workload+".trace.json"), tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace export:", err)
	}
	return nil
}

// scrapeProm fetches base/metrics and returns every sample by its full
// series name (name plus label set, as printed).
func scrapeProm(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// layerMetrics computes every per-layer metric over the traced part of
// the run. Layers a workload does not exercise read 0.
func (p *probe) layerMetrics(w workload, m measured) (map[string]metric, error) {
	n := float64(p.ops)
	if n == 0 {
		n = 1
	}
	b, a := p.before, p.after
	prom := func(name string) float64 { return a.prom[name] - b.prom[name] }
	perOp := func(x float64) float64 { return x / n }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	// Spans the benchmark recorded around its calls into each layer.
	durs := map[string][]float64{}
	expMS := map[string]float64{}
	for _, s := range p.spans.Spans {
		ms := float64(s.DurNS()) / 1e6
		durs[s.Name] = append(durs[s.Name], ms)
		if s.Name == "experiments.Run" {
			expMS[s.Attr("id")] += ms
		}
	}
	var otherMS float64
	for id, ms := range expMS {
		switch id {
		case "table1", "fig14", "ablations", "fig19":
		default:
			otherMS += ms
		}
	}
	set("experiments.table1_ms", "ms", perOp(expMS["table1"]))
	set("experiments.fig14_ms", "ms", perOp(expMS["fig14"]))
	set("experiments.ablations_ms", "ms", perOp(expMS["ablations"]))
	set("experiments.fig19_ms", "ms", perOp(expMS["fig19"]))
	set("experiments.other_ms", "ms", perOp(otherMS))
	for _, name := range []string{"submit", "wait", "result", "metrics_scrape"} {
		set("http."+name+"_ms", "ms", quantile(durs["http."+name], 0.5))
	}
	for _, name := range []string{"claim", "renew", "report"} {
		set("dist."+name+"_ms", "ms", quantile(durs["dist."+name], 0.5))
	}

	// Op latencies by class.
	byClass := map[string][]float64{}
	for i, c := range m.class {
		byClass[c] = append(byClass[c], m.lat[i])
	}
	set("http.hit_ms", "ms", quantile(byClass["hit"], 0.5))
	set("http.fresh_ms", "ms", quantile(byClass["fresh"], 0.5))
	set("serve.surface_ms", "ms", quantile(byClass["surface.mc"], 0.5))
	set("serve.pauli_ms", "ms", quantile(byClass["pauli.mc"], 0.5))
	set("serve.readout_ms", "ms", quantile(byClass["readout.mc"], 0.5))
	var firstGrant []float64
	if f, ok := w.(*fleet); ok {
		firstGrant = f.firstGrantMS[p.firstGrantFrom:]
	}
	set("dist.first_grant_wait_ms", "ms", quantile(firstGrant, 0.5))

	// Counters the program exports, differenced over the traced part.
	set("simrun.shards_per_op", "count/op", perOp(prom("qisimd_shard_seconds_count")))
	set("checkpoint.saves_per_op", "count/op", perOp(prom("qisimd_checkpoints_saved_total")))
	// The kernel counts storage writes in dirtied 4 KiB pages, and every
	// fsynced journal append dirties one; the rest are checkpoint (and, on
	// the fleet, unit-result) files.
	journalBytes := float64(a.journalBytes - b.journalBytes)
	appends := float64(a.journalLines - b.journalLines)
	storage := float64(a.res.ioWriteBytes-b.res.ioWriteBytes) - pageSize*appends
	set("checkpoint.bytes_per_op", "B/op", perOp(max(storage, 0)))
	set("journal.appends_per_op", "count/op", perOp(appends))
	set("journal.bytes_per_op", "B/op", perOp(journalBytes))
	set("stage.queue_wait_ms", "ms", 1000*ratio(prom("qisimd_queue_wait_seconds_sum"), prom("qisimd_queue_wait_seconds_count")))
	hits, misses := prom("qisimd_cache_hits_total"), prom("qisimd_cache_misses_total")
	set("rescache.hit_ratio", "ratio", ratio(hits, hits+misses))
	set("rescache.evictions_per_op", "count/op", perOp(prom("qisimd_cache_evictions_total")))
	set("dist.claims_granted_frac", "frac", ratio(float64(a.granted-b.granted), float64(a.claims-b.claims)))
	set("dist.units_per_op", "count/op", perOp(float64(a.workers.Executions-b.workers.Executions)))
	set("dist.retries_per_op", "count/op", perOp(prom("qisimd_dist_unit_retries_total")))
	set("dist.abandoned_per_op", "count/op", perOp(float64(a.workers.Abandoned-b.workers.Abandoned)))
	set("gc.cycles_per_op", "count/op", perOp(float64(a.res.numGC-b.res.numGC)))
	set("alloc.objects_per_op", "count/op", perOp(float64(a.res.mallocs-b.res.mallocs)))

	// CPU profile folded by package.
	prof, err := parseCPUProfile(p.prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for name, frac := range prof.fold() {
		set("cpu."+name+"_frac", "frac", frac)
	}
	set("trace.overhead_frac", "frac", ratio(m.tracedMeanMS, m.baseMeanMS)-1)
	return out, nil
}
