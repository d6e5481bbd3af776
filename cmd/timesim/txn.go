package main

import (
	"fmt"
	"io"

	"disttime/internal/core"
	"disttime/internal/obs"
	"disttime/internal/service"
	"disttime/internal/txn"
)

// The txn demo's cluster: txnN servers with one client each, every
// client committing txnRate transactions per virtual second for txnDur
// virtual seconds.
const (
	txnN    = 4
	txnRate = 1.0
	txnDur  = 120.0
)

// runTxn runs the commit-wait transaction demo: a txnN-server mesh whose
// clocks start skewed but contained, with one client per server
// stamping transactions from the server's hybrid logical clock and
// committing only after the TrueTime-style commit-wait, printing the
// full commit timeline in virtual-time order.
//
// The service is seeded and the workload draws its think gaps from the
// service's simulator, so the entire output is a pure function of the
// seed: two invocations with the same seed are byte-identical, which
// TestRunTxnDeterministic enforces. A VIOLATION line (a commit whose
// timestamp does not exceed one committed before its start) would mark
// an external-consistency break and exits nonzero.
// A non-empty metrics path receives the run's metrics snapshot.
func runTxn(seed uint64, metrics string, out io.Writer) error {
	specs := make([]service.ServerSpec, txnN)
	for i := range specs {
		// Deterministic mixed drifts inside the claimed bound and initial
		// offsets spread across the error envelope — the skew that makes
		// commit-wait earn its keep.
		specs[i] = service.ServerSpec{
			Delta:         1e-4,
			Drift:         1e-4 * (1 - 2*float64(i%2)),
			InitialOffset: 0.04 - 0.08*float64(i)/(txnN-1),
			InitialError:  0.05,
			SyncEvery:     20,
		}
	}
	svc, err := service.New(service.Config{
		Seed:    seed,
		Delay:   core.Band{Max: 0.05},
		Fn:      core.IM{},
		Servers: specs,
	})
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if metrics != "" {
		reg = obs.NewRegistry()
		svc.Observe(reg, nil)
	}
	fmt.Fprintf(out, "txn demo: n=%d dur=%gs rate=%g/client seed=%d waiter=commit-wait\n",
		txnN, txnDur, txnRate, seed)
	w, err := txn.Attach(svc, txn.Config{
		Clients: txnN,
		Rate:    txnRate,
		OnCommit: func(x txn.Txn) {
			fmt.Fprintf(out, "commit client=%d seq=%d start=%.6f commit=%.6f wait=%.6f ts=%v\n",
				x.Client, x.Seq, x.Start, x.Commit, x.Commit-x.Start, x.TS)
		},
		OnViolation: func(v txn.Violation) {
			fmt.Fprintf(out, "VIOLATION t=%.6f client=%d: %s\n", v.T, v.Client, v.Detail)
		},
	})
	if err != nil {
		return err
	}
	svc.Run(txnDur)
	maxTS, maxNode := w.MaxCommitted()
	fmt.Fprintf(out, "txn run: seed=%d steps=%d commits=%d violations=%d max-ts=%v@server%d\n",
		seed, svc.Sim.Steps(), w.Commits, w.Violations, maxTS, maxNode)
	if err := writeMetrics(metrics, reg); err != nil {
		return err
	}
	if w.Violations > 0 {
		return fmt.Errorf("txn demo recorded %d external-consistency violations", w.Violations)
	}
	return nil
}
