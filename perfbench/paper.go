package main

import (
	"bytes"
	"context"
	"fmt"

	"qisim/internal/experiments"
	"qisim/internal/obs"
)

// paperRepro is the "paper-repro" workload: one op is one full
// reproduction, experiments.Run(id) for every id of experiments.IDs() in
// paper order. Every op's report bytes must equal the reference
// reproduction made during set-up. The workload has no random input, so
// the seed selects nothing here.
type paperRepro struct {
	ref    []byte
	tamper func(int, []byte) []byte
}

func (w *paperRepro) setup(ctx context.Context, e env) error {
	w.tamper = e.cfg.tamper
	ref, err := reproduce(ctx)
	w.ref = ref
	return err
}

func (w *paperRepro) op(ctx context.Context, i int) (string, error) {
	got, err := reproduce(ctx)
	if err != nil {
		return "repro", err
	}
	if w.tamper != nil {
		got = w.tamper(i, got)
	}
	if !bytes.Equal(got, w.ref) {
		return "repro", fmt.Errorf("report differs from the reference reproduction (%d vs %d bytes)", len(got), len(w.ref))
	}
	return "repro", nil
}

func (w *paperRepro) verify(context.Context) (int, error) { return 0, nil }
func (w *paperRepro) close()                              {}

// reproduce runs every experiment once and concatenates the reports. Each
// experiments.Run call gets its own span (a no-op when ctx has no tracer).
func reproduce(ctx context.Context) ([]byte, error) {
	var b bytes.Buffer
	for _, id := range experiments.IDs() {
		_, sp := obs.StartSpan(ctx, "experiments.Run", obs.String("id", id))
		s, err := experiments.Run(id)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		b.WriteString(s)
	}
	return b.Bytes(), nil
}
