package main

import (
	"fmt"
	"io"
	"os"

	"disttime/internal/obs"
	"disttime/internal/service"
)

// The instrumented demo scenario runs under obsSeed for obsDur virtual
// seconds.
const (
	obsSeed = 1
	obsDur  = 600.0
)

// runObserved executes the instrumented demo scenario: a four-server
// full-mesh MM service with mixed drift rates, run for obsDur virtual
// seconds under obsSeed with the full observability layer attached,
// writing the metrics snapshot to metrics and the span log to traceOut
// (an empty path skips either). Both files are pure functions of the
// scenario — two invocations write byte-identical files — which is the
// determinism contract DESIGN.md §12 specifies and
// TestObservedRunDeterministic enforces.
func runObserved(metrics, traceOut string, out io.Writer) error {
	reg := obs.NewRegistry()
	tr, closeTrace, err := openTracer(traceOut)
	if err != nil {
		return err
	}
	defer closeTrace()

	svc, err := service.New(service.Config{
		Seed: obsSeed,
		Servers: []service.ServerSpec{
			{Delta: 1e-4, Drift: 5e-5, InitialError: 0.05, SyncEvery: 10},
			{Delta: 1e-4, Drift: -8e-5, InitialError: 0.05, SyncEvery: 10},
			{Delta: 2e-4, Drift: 1.5e-4, InitialError: 0.08, SyncEvery: 10},
			{Delta: 1e-4, Drift: 2e-5, InitialError: 0.05, SyncEvery: 10},
		},
	})
	if err != nil {
		return err
	}
	svc.Observe(reg, tr)
	svc.Run(obsDur)

	if err := writeMetrics(metrics, reg); err != nil {
		return err
	}
	if err := tr.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(out, "observed run: seed=%d dur=%gs steps=%d spans=%d\n",
		obsSeed, obsDur, svc.Sim.Steps(), tr.Spans())
	return nil
}

// openTracer opens a span tracer writing to path; an empty path yields a
// nil (discarding) tracer and a no-op closer.
func openTracer(path string) (*obs.Tracer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	return obs.NewTracer(f), func() { f.Close() }, nil
}

// writeMetrics snapshots reg to path as JSON; an empty path is a no-op.
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return f.Close()
}
