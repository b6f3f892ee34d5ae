package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"qisim/internal/simrun"
)

// TestScalabilityEnvelopeGolden pins the sha256 of the result envelope of
// every analytic kind, status block included, so a change to how the
// runners execute cannot move a result byte unnoticed.
func TestScalabilityEnvelopeGolden(t *testing.T) {
	cases := []struct{ name, kind, params, want string }{
		{"analyze-all", "scalability.analyze", `{}`,
			"342a25dfb4d8872c4576eb94a05f79fc55f70c6d6d7e828989b089fab9bdd90f"},
		{"analyze-named", "scalability.analyze", `{"designs":["4K-CMOS-opt12","ERSFQ-opt8"]}`,
			"9e5c7de6cca34bdc4f8c2f41569481561728bc9cbd15120bf85d75ff8b03776d"},
		{"analyze-extended-d3", "scalability.analyze", `{"extended":true,"distance":3}`,
			"ed4bceb1aef63e868bd76ee831b2ea3aab380d2762c015a3e22c3079f941f738"},
		{"sweep-4", "scalability.sweep", `{"design":"RSFQ-opt345","qubit_counts":[100,1000,10000,100000]}`,
			"54120bdbc80e8c916277ee413297d10038d5c4119c3ed85d6f42abaa393450ca"},
		{"dse-point", "dse.point", `{"design":"4K-CMOS-advanced-opt67","distance":15,"extra_gate_error":0.0001}`,
			"c399dc022d564070717584c2669d09ee44307bae1bd8c7a9a2322b38205532c2"},
	}
	for _, c := range cases {
		_, _, run, err := buildJob(jobRequest{Kind: c.kind, Params: json.RawMessage(c.params)}, buildEnv{})
		if err != nil {
			t.Fatalf("%s: buildJob: %v", c.name, err)
		}
		body, st, err := run(context.Background(), func(int, int) {})
		if err != nil {
			t.Fatalf("%s: run: %v", c.name, err)
		}
		if st.Truncated || st.Completed != st.Requested {
			t.Errorf("%s: incomplete status %+v", c.name, st)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: envelope sha256 %s, want %s\n%s", c.name, got, c.want, body)
		}
	}
}

// TestScalabilityAnalyzeStopReason: a named-designs analysis whose job
// deadline has passed reports "deadline", as an all-designs one does.
func TestScalabilityAnalyzeStopReason(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, params := range []string{`{}`, `{"designs":["4K-CMOS-opt12","ERSFQ-opt8"]}`} {
		_, _, run, err := buildJob(jobRequest{Kind: "scalability.analyze", Params: json.RawMessage(params)}, buildEnv{})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := run(ctx, func(int, int) {})
		if err != nil {
			t.Fatalf("%s: %v", params, err)
		}
		if !st.Truncated || st.StopReason != simrun.StopDeadline || st.Completed != 1 {
			t.Errorf("%s: status %+v, want a deadline stop after one design", params, st)
		}
	}
}
