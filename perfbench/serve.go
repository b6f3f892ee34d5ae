package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"qisim/internal/obs"
	"qisim/internal/service"
)

// server is an in-process qisimd serving on a loopback port, built the way
// cmd/qisimd builds it (service.New → Start → Recover → http.Server).
type server struct {
	srv     *service.Server
	hs      *http.Server
	url     string
	dataDir string
	done    chan struct{}
}

func startServer(cfg service.Config) (*server, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	if _, err := srv.Recover(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		url:     "http://" + ln.Addr().String(),
		dataDir: cfg.DataDir,
		done:    make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on close
	}()
	return s, nil
}

// close drains the job pool, closes the listener and waits for it.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx) //nolint:errcheck // teardown: nothing left to report to
	s.hs.Close()     //nolint:errcheck
	<-s.done
}

// request is one POST /v1/jobs body.
type request struct {
	Kind   string         `json:"kind"`
	Params map[string]any `json:"params"`
}

// client is the benchmark's single caller: it submits, waits on the job's
// SSE stream and fetches the result, each call under its own span.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// submitted is the part of the submit reply the benchmark reads.
type submitted struct {
	Outcome string `json:"outcome"`
	Job     struct {
		ID  string `json:"id"`
		Key string `json:"key"`
	} `json:"job"`
}

func (c *client) submit(ctx context.Context, req request) (submitted, error) {
	_, sp := obs.StartSpan(ctx, "http.submit", obs.String("kind", req.Kind))
	defer sp.End()
	var s submitted
	body, err := json.Marshal(req)
	if err != nil {
		return s, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return s, fmt.Errorf("submit %s: HTTP %d: %s", req.Kind, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("submit %s: %w", req.Kind, err)
	}
	return s, nil
}

// wait follows GET /v1/jobs/{id}/events until the server closes the stream,
// which it does when the job reaches a terminal state. Whether the job
// succeeded shows when its result is fetched.
func (c *client) wait(ctx context.Context, id string) error {
	_, sp := obs.StartSpan(ctx, "http.wait")
	defer sp.End()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// get fetches path and returns the body of a 200 reply.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) result(ctx context.Context, key string) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, "http.result")
	defer sp.End()
	return c.get(ctx, "/v1/results/"+key)
}

// scrape fetches /metrics.
func (c *client) scrape(ctx context.Context) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, "http.metrics_scrape")
	defer sp.End()
	return c.get(ctx, "/metrics")
}

// run submits req, insists on the given submit outcome ("queued" for a
// never-seen request, "cached" for a warm key), waits for a queued job on
// its event stream, fetches the result and returns its bytes.
func (c *client) run(ctx context.Context, req request, want string) ([]byte, string, error) {
	s, err := c.submit(ctx, req)
	if err != nil {
		return nil, "", err
	}
	if s.Outcome != want {
		return nil, s.Job.Key, fmt.Errorf("submit %s: outcome %q, want %q", req.Kind, s.Outcome, want)
	}
	if s.Outcome != "cached" {
		if err := c.wait(ctx, s.Job.ID); err != nil {
			return nil, s.Job.Key, err
		}
	}
	body, err := c.result(ctx, s.Job.Key)
	return body, s.Job.Key, err
}

// checkEnvelope verifies a result envelope against the request that
// produced it: kind, key and every sent parameter must match (workers,
// seed and shard_size live outside the params object), the seed must
// match, and the run status must say every requested unit completed.
func checkEnvelope(body []byte, req request, key string) error {
	var env struct {
		Kind   string                     `json:"kind"`
		Key    string                     `json:"key"`
		Params map[string]json.RawMessage `json:"params"`
		Seed   int64                      `json:"seed"`
		Result struct {
			Status *struct {
				Requested int  `json:"requested"`
				Completed int  `json:"completed"`
				Truncated bool `json:"truncated"`
			} `json:"status"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("result envelope: %w", err)
	}
	if env.Kind != req.Kind || env.Key != key {
		return fmt.Errorf("envelope is %s/%s, want %s/%s", env.Kind, env.Key, req.Kind, key)
	}
	for k, v := range req.Params {
		switch k {
		case "workers", "shard_size":
			continue
		case "seed":
			if s, _ := v.(int64); s != env.Seed {
				return fmt.Errorf("envelope seed %d, want %v", env.Seed, v)
			}
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if got := env.Params[k]; !bytes.Equal(bytes.TrimSpace(got), want) {
			return fmt.Errorf("envelope param %s = %s, want %s", k, got, want)
		}
	}
	if isMC(req.Kind) {
		st := env.Result.Status
		if st == nil {
			return errors.New("MC result carries no status")
		}
		if st.Truncated || st.Completed != st.Requested || st.Requested == 0 {
			return fmt.Errorf("MC status incomplete: %d of %d shots (truncated=%v)", st.Completed, st.Requested, st.Truncated)
		}
	}
	return nil
}

func isMC(kind string) bool {
	return kind == "surface.mc" || kind == "pauli.mc" || kind == "readout.mc"
}
