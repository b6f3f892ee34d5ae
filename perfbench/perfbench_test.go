package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeOps is how many ops each workload runs in smoke mode.
func smokeOps(workload string) int {
	if workload == "paper-repro" {
		return 2
	}
	return 8
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 7, seconds: 60, trace: trace, setups: 1,
		maxOps: smokeOps(workload), workDir: dir,
	}
}

// exercised lists, per workload, per-layer metrics that must be non-zero
// even in a few-op traced run: each names a layer the workload exists to
// measure.
var exercised = map[string][]string{
	"paper-repro": {"experiments.table1_ms", "experiments.fig14_ms", "experiments.ablations_ms"},
	"serve-mc": {"serve.surface_ms", "simrun.shards_per_op", "checkpoint.saves_per_op",
		"journal.appends_per_op", "journal.bytes_per_op"},
	"serve-hits": {"http.hit_ms", "http.fresh_ms", "rescache.hit_ratio", "rescache.evictions_per_op"},
	"fleet":      {"dist.claim_ms", "dist.report_ms", "dist.units_per_op", "dist.claims_granted_frac"},
}

// TestSmoke runs every workload for a few ops, untraced and traced, and
// checks that every op passes its output check and that the printed metric
// names and units are exactly those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range s.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), smokeConfig(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != smokeOps(name) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want[trace]))
			}
			for n, unit := range want[trace] {
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, n, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
			if trace {
				for _, n := range exercised[name] {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: layer metric %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedResultFails corrupts one op's output on every workload and
// checks that the op, and only that op, counts as failed.
func TestCorruptedResultFails(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := smokeConfig(t, name, false)
		cfg.tamper = func(i int, out []byte) []byte {
			if i != 1 {
				return out
			}
			if bytes.HasPrefix(out, []byte("{")) {
				// A result for some other request: the key no longer matches.
				return bytes.Replace(out, []byte(`"key":"`), []byte(`"key":"0`), 1)
			}
			return append(append([]byte(nil), out...), 'x')
		}
		res, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want false/1", name, res.Correct, res.Failed)
		}
	}
}

// TestFleetRecomputeCatchesMismatch checks the fleet's after-window check:
// a kept fleet result that differs from its standalone recomputation
// counts as a failed op.
func TestFleetRecomputeCatchesMismatch(t *testing.T) {
	ctx := context.Background()
	cfg := smokeConfig(t, "fleet", false)
	w := &fleet{}
	if err := w.setup(ctx, env{cfg: cfg, dir: cfg.workDir, probe: &probe{}}); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := 0; i < fleetSamples+2; i++ {
		if _, err := w.op(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.kept) != fleetSamples {
		t.Fatalf("kept %d samples, want %d", len(w.kept), fleetSamples)
	}
	if bad, err := w.verify(ctx); err != nil || bad != 0 {
		t.Fatalf("honest fleet: bad=%d err=%v", bad, err)
	}
	w.kept[1].body = bytes.Replace(w.kept[1].body, []byte(`"result":{`), []byte(`"result":{"x":1,`), 1)
	if bad, err := w.verify(ctx); err != nil || bad != 1 {
		t.Fatalf("tampered sample: bad=%d err=%v, want 1", bad, err)
	}
}

// TestFleetSampleSpansWindow checks that the fleet's recomputed samples
// are drawn from the whole window, not only its first ops, and that the
// draw is a function of the seed.
func TestFleetSampleSpansWindow(t *testing.T) {
	const ops = 300
	pick := func(seed int64) []int {
		w := &fleet{seed: seed}
		for i := 0; i < ops; i++ {
			w.keep(keptResult{i: i})
		}
		var idx []int
		for _, k := range w.kept {
			idx = append(idx, k.i)
		}
		sort.Ints(idx)
		return idx
	}
	a := pick(5)
	if len(a) != fleetSamples {
		t.Fatalf("kept %d samples, want %d", len(a), fleetSamples)
	}
	if a[len(a)-1] < ops/2 {
		t.Errorf("samples %v all come from the first half of %d ops", a, ops)
	}
	if b := pick(5); !slices.Equal(a, b) {
		t.Errorf("seed 5 drew %v, then %v", a, b)
	}
}

// TestSeedDrivesInputs pins that generated inputs are a pure function of
// the seed: equal seeds give equal requests, different seeds different
// ones, and the serve-hits streams never collide.
func TestSeedDrivesInputs(t *testing.T) {
	designs := designNames()
	key := func(r request) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i := 0; i < 6; i++ {
		if key(mcRequest(1, streamMC, i)) != key(mcRequest(1, streamMC, i)) {
			t.Fatal("mcRequest is not deterministic")
		}
		if key(mcRequest(1, streamMC, i)) == key(mcRequest(2, streamMC, i)) {
			t.Fatalf("seeds 1 and 2 give the same request %d", i)
		}
	}
	seen := map[string]bool{}
	add := func(r request) {
		k := key(r)
		if seen[k] {
			t.Fatalf("duplicate request %s", k)
		}
		seen[k] = true
	}
	for i := 0; i < hitsWarmKeys; i++ {
		add(warmRequest(3, i, designs))
	}
	for i := 0; i < 256; i++ {
		add(dsePoint(3, streamHitsFill, i, designs, 2e-3))
	}
	for i := 0; i < 20000; i++ {
		add(freshRequest(3, i, designs))
	}
}
