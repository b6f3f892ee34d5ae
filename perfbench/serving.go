package main

import (
	"context"
	"fmt"

	"qisim/internal/service"
)

// serveMC is the "serve-mc" workload: a standalone qisimd on loopback with
// a data dir; one op submits a never-seen MC request, waits on its event
// stream, fetches the result and checks the envelope.
type serveMC struct {
	s      *server
	c      *client
	seed   int64
	tamper func(int, []byte) []byte
}

func (w *serveMC) setup(ctx context.Context, e env) error {
	w.seed, w.tamper = e.cfg.seed, e.cfg.tamper
	// A data dir, as qisimd -data-dir: every job is journaled and every MC
	// run checkpoints, so the durable path is part of each op.
	s, err := startServer(service.Config{DataDir: e.dir})
	if err != nil {
		return err
	}
	w.s, w.c = s, newClient(s.url)
	return warmMC(ctx, w.c, w.seed)
}

// warmMC runs one request of each MC kind from a stream the timed window
// never uses, so lazy initialisation is paid during set-up.
func warmMC(ctx context.Context, c *client, seed int64) error {
	for i := 0; i < 3; i++ {
		req := mcRequest(seed, streamMCWarm, i)
		if _, _, err := runChecked(ctx, c, req, "queued", i, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", req.Kind, err)
		}
	}
	return nil
}

func (w *serveMC) op(ctx context.Context, i int) (string, error) {
	req := mcRequest(w.seed, streamMC, i)
	_, _, err := runChecked(ctx, w.c, req, "queued", i, w.tamper)
	return req.Kind, err
}

// runChecked runs one request and checks its envelope, applying the
// self-test's tamper hook (if any) to the fetched bytes first.
func runChecked(ctx context.Context, c *client, req request, want string, i int, tamper func(int, []byte) []byte) ([]byte, string, error) {
	body, key, err := c.run(ctx, req, want)
	if err != nil {
		return nil, key, err
	}
	if tamper != nil {
		body = tamper(i, body)
	}
	return body, key, checkEnvelope(body, req, key)
}

func (w *serveMC) verify(context.Context) (int, error) { return 0, nil }

func (w *serveMC) close() {
	if w.c != nil {
		w.c.close()
	}
	w.s.close()
}

func (w *serveMC) target() *server { return w.s }

// hitsWarmKeys is the size of serve-hits' fixed warm-key set.
const hitsWarmKeys = 48

// hitsScrapeEvery is how many ops pass between timed /metrics scrapes.
const hitsScrapeEvery = 100

// serveHits is the "serve-hits" workload: the standalone server with its
// result cache filled to capacity during set-up. Three of every four ops
// re-submit a warm key (a 200 cached reply) and fetch the result; the
// fourth submits a never-seen analytic job that runs in microseconds and
// goes through queue, journal, LRU eviction and the event stream.
type serveHits struct {
	s       *server
	c       *client
	seed    int64
	designs []string
	warm    []request
	stride  int
	tamper  func(int, []byte) []byte
}

func (w *serveHits) setup(ctx context.Context, e env) error {
	w.seed, w.tamper, w.designs = e.cfg.seed, e.cfg.tamper, designNames()
	s, err := startServer(service.Config{})
	if err != nil {
		return err
	}
	w.s, w.c = s, newClient(s.url)
	w.warm = w.warm[:0]
	for i := 0; i < hitsWarmKeys; i++ {
		req := warmRequest(w.seed, i, w.designs)
		if _, _, err := runChecked(ctx, w.c, req, "queued", i, nil); err != nil {
			return fmt.Errorf("warm key %d: %w", i, err)
		}
		w.warm = append(w.warm, req)
	}
	// Fill the rest of the cache so every fresh job evicts an entry.
	for i := 0; s.srv.Cache().Len() < cacheCapacity; i++ {
		req := dsePoint(w.seed, streamHitsFill, i, w.designs, 2e-3)
		if _, _, err := runChecked(ctx, w.c, req, "queued", i, nil); err != nil {
			return fmt.Errorf("fill %d: %w", i, err)
		}
	}
	// Touch every warm key once more so the fill entries, not the warm
	// keys, sit at the LRU tail when the window starts.
	for i, req := range w.warm {
		if _, _, err := runChecked(ctx, w.c, req, "cached", i, nil); err != nil {
			return fmt.Errorf("warm key %d: %w", i, err)
		}
	}
	w.stride = hitStride(w.seed)
	return nil
}

// hitStride returns a seeded step coprime to hitsWarmKeys: hit j re-submits
// warm key (j·stride) mod hitsWarmKeys, so every warm key recurs once per
// hitsWarmKeys hits and the LRU never evicts one.
func hitStride(seed int64) int {
	for s := int(mix(seed, streamHitsPick, 0) % hitsWarmKeys); ; s++ {
		if gcd(s, hitsWarmKeys) == 1 {
			return s
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cacheCapacity is qisimd's default result-cache capacity.
const cacheCapacity = 256

// beforeOp scrapes /metrics every hitsScrapeEvery ops. The scrape has its
// own span (http.metrics_scrape) and is not an op.
func (w *serveHits) beforeOp(ctx context.Context, i int) error {
	if i == 0 || i%hitsScrapeEvery != 0 {
		return nil
	}
	_, err := w.c.scrape(ctx)
	return err
}

func (w *serveHits) op(ctx context.Context, i int) (string, error) {
	if i%4 == 3 {
		req := freshRequest(w.seed, i/4, w.designs)
		_, _, err := runChecked(ctx, w.c, req, "queued", i, w.tamper)
		return "fresh", err
	}
	hit := i - i/4 // hits before this one
	req := w.warm[hit*w.stride%hitsWarmKeys]
	_, _, err := runChecked(ctx, w.c, req, "cached", i, w.tamper)
	return "hit", err
}

func (w *serveHits) verify(context.Context) (int, error) { return 0, nil }

func (w *serveHits) close() {
	if w.c != nil {
		w.c.close()
	}
	w.s.close()
}

func (w *serveHits) target() *server { return w.s }
