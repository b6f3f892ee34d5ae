package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qisim/internal/dist"
	"qisim/internal/metrics"
	"qisim/internal/obs"
	"qisim/internal/service"
)

// fleetPollInterval is the workers' idle claim pacing. qisimd deploys
// 250 ms, and a worker sleeps a jittered 0.5–1.5× of it whenever it finds
// no work, which at 250 ms dominates a ~50 ms job's tail. The benchmark
// measures the dist layer's own cost, so it sets the interval short.
const fleetPollInterval = 5 * time.Millisecond

// fleetUnitShards is the coordinator's work-unit size in shards (qisimd
// -unit-shards). One shard per unit makes each op's mcShards shards eight
// leases, claimed, renewed and reported across the workers.
const fleetUnitShards = 1

// fleetWorkers is the number of in-process fleet workers.
const fleetWorkers = 2

// fleetSamples is how many of the window's results the fleet workload
// recomputes on a standalone server after the window.
const fleetSamples = 6

// fleet is the "fleet" workload: a coordinator and two in-process
// dist.Workers over loopback HTTP, wired the way cmd/qisimd wires them
// (worker-local registry summaries, unit-seconds histogram, flight
// recorder, per-unit tracing), with chaos and spot-checks off. One op is
// serve-mc's request for the same seed and index, so the two workloads
// differ only by the dist layer.
type fleet struct {
	s       *server
	c       *client
	seed    int64
	tamper  func(int, []byte) []byte
	api     *tracedAPI
	workers []*dist.Worker
	stop    context.CancelFunc
	wg      sync.WaitGroup
	// kept holds sampled (request, fleet result) pairs for verify; seen
	// counts the successful ops they were drawn from.
	kept []keptResult
	seen int
	// firstGrantMS holds, per op, submit → first granted claim of its job.
	firstGrantMS []float64
}

type keptResult struct {
	i    int
	req  request
	body []byte
}

func (w *fleet) setup(ctx context.Context, e env) error {
	w.seed, w.tamper = e.cfg.seed, e.cfg.tamper
	s, err := startServer(service.Config{Dist: service.DistConfig{Enabled: true, UnitShards: fleetUnitShards}})
	if err != nil {
		return err
	}
	w.s, w.c = s, newClient(s.url)
	w.api = &tracedAPI{next: &dist.Client{Base: s.url}, probe: e.probe}
	wctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		reg := metrics.New()
		unitSeconds := reg.Histogram("qisimd_worker_unit_seconds",
			"Work-unit execution wall clock on this worker.", metrics.DefaultLatencyBuckets())
		wk, err := dist.NewWorker(dist.WorkerConfig{
			ID:           fmt.Sprintf("bench-%d", i),
			Coordinator:  w.api,
			Cores:        service.BuildCore,
			PollInterval: fleetPollInterval,
			Seed:         int64(i + 1),
			Trace:        true,
			Metrics:      reg.Summary,
			Flight:       obs.NewFlightRecorder(0),
			UnitSeconds:  unitSeconds.Observe,
		})
		if err != nil {
			return err
		}
		w.workers = append(w.workers, wk)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			wk.Run(wctx) //nolint:errcheck // ends by cancellation at close
		}()
	}
	for w.api.registered.Load() < fleetWorkers {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return warmMC(ctx, w.c, w.seed)
}

func (w *fleet) op(ctx context.Context, i int) (string, error) {
	req := mcRequest(w.seed, streamMC, i)
	t0 := time.Now()
	body, key, err := runChecked(ctx, w.c, req, "queued", i, w.tamper)
	if t, ok := w.api.firstGrant.LoadAndDelete(key); ok {
		w.firstGrantMS = append(w.firstGrantMS, float64(t.(time.Time).Sub(t0).Nanoseconds())/1e6)
	}
	if err != nil {
		return req.Kind, err
	}
	w.keep(keptResult{i: i, req: req, body: body})
	return req.Kind, nil
}

// keep reservoir-samples the successful ops (Algorithm R, with the draw
// taken from the workload seed), so the fleetSamples results recomputed
// after the window are a uniform pick from the whole window.
func (w *fleet) keep(k keptResult) {
	w.seen++
	if len(w.kept) < fleetSamples {
		w.kept = append(w.kept, k)
		return
	}
	if j := mix(w.seed, streamFleetPick, uint64(w.seen)) % uint64(w.seen); j < fleetSamples {
		w.kept[j] = k
	}
}

// verify recomputes the sampled results on a fresh standalone server
// (in-memory, no fleet) and compares them byte for byte: the fleet's
// merged results must be identical to standalone runs.
func (w *fleet) verify(ctx context.Context) (int, error) {
	solo, err := startServer(service.Config{})
	if err != nil {
		return 0, err
	}
	defer solo.close()
	c := newClient(solo.url)
	defer c.close()
	bad := 0
	for _, k := range w.kept {
		want, _, err := c.run(ctx, k.req, "queued")
		if err != nil {
			return 0, fmt.Errorf("standalone recompute of op %d: %w", k.i, err)
		}
		if !bytes.Equal(k.body, want) {
			bad++
			fmt.Printf("perfbench: fleet op %d (%s) differs from its standalone recompute\n", k.i, k.req.Kind)
		}
	}
	return bad, nil
}

func (w *fleet) close() {
	if w.stop != nil {
		w.stop()
		w.wg.Wait()
	}
	if w.c != nil {
		w.c.close()
	}
	w.s.close()
}

func (w *fleet) target() *server { return w.s }

// workerStats sums Worker.Stats() over the fleet.
func (w *fleet) workerStats() dist.WorkerStats {
	var sum dist.WorkerStats
	for _, wk := range w.workers {
		st := wk.Stats()
		sum.Claims += st.Claims
		sum.Executions += st.Executions
		sum.Reports += st.Reports
		sum.Abandoned += st.Abandoned
	}
	return sum
}

// tracedAPI is the dist.CoordinatorAPI the benchmark hands its workers: it
// forwards every call to the HTTP client, counts calls and granted claims,
// records when each job's first unit was granted, and in a traced run
// records a span per call.
type tracedAPI struct {
	next       dist.CoordinatorAPI
	probe      *probe
	registered atomic.Int64
	claims     atomic.Int64
	granted    atomic.Int64
	// firstGrant maps a job key to the time its first unit was granted.
	firstGrant sync.Map
}

// span starts a root span on the live tracer (nil outside a traced part).
func (a *tracedAPI) span(ctx context.Context, name string) (context.Context, *obs.Span) {
	if tr := a.probe.tracer(); tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}
	return obs.StartSpan(ctx, name)
}

func (a *tracedAPI) Register(ctx context.Context, info dist.WorkerInfo) error {
	ctx, sp := a.span(ctx, "dist.register")
	defer sp.End()
	err := a.next.Register(ctx, info)
	if err == nil {
		a.registered.Add(1)
	}
	return err
}

func (a *tracedAPI) Claim(ctx context.Context, workerID, idemKey string) (*dist.LeaseGrant, error) {
	ctx, sp := a.span(ctx, "dist.claim")
	g, err := a.next.Claim(ctx, workerID, idemKey)
	sp.End()
	a.claims.Add(1)
	if g != nil {
		a.granted.Add(1)
		a.firstGrant.LoadOrStore(g.Key, time.Now())
	}
	return g, err
}

func (a *tracedAPI) Renew(ctx context.Context, workerID, key string, start, end int, sum *metrics.Summary) error {
	ctx, sp := a.span(ctx, "dist.renew")
	defer sp.End()
	return a.next.Renew(ctx, workerID, key, start, end, sum)
}

func (a *tracedAPI) Report(ctx context.Context, workerID string, container []byte) error {
	ctx, sp := a.span(ctx, "dist.report")
	defer sp.End()
	return a.next.Report(ctx, workerID, container)
}
