package dynamics

import (
	"fmt"
	"time"
)

// Faults is the asynchronous-runtime half of the dynamism model: faults
// injected at the EXCHANGE layer rather than the round loop, because the
// async runtime has no rounds. internal/sched consumes this through
// sched.Options.Faults; a nil Faults leaves the runtime untouched
// (pinned bit-identical by the sched 1-worker golden test).
//
// Loss models a request dropped in transit: the initiation is spent (it
// counts against MaxOps and Result.Lost) but no exchange happens — the
// initiator moves on exactly as if the link had been down, which is the
// classic fire-and-forget reading of loss in a gossip protocol. Delay
// models transit latency: the initiator waits a uniform (0, DelayMax]
// before its request is delivered, serving its own inbox meanwhile so
// delays never deadlock the protocol. Both draw from the initiating
// agent's own seeded stream, so fault decisions are reproducible
// per-agent even though the global interleaving is scheduler-dependent
// (as everything in the async runtime is).
//
// The conservation law is untouched by either fault: a lost request
// changes no state, and a delayed one executes the same atomic PairStep
// later — which is exactly why the paper's algorithms tolerate them.
type Faults struct {
	// LossP is the probability, per initiated exchange whose link is up,
	// that the request is lost in transit. Must be in [0, 1).
	LossP float64
	// DelayMax, when positive, adds a uniform (0, DelayMax] delivery
	// latency to every surviving request.
	DelayMax time.Duration
}

// Validate reports whether the fault parameters are usable; the runtime
// rejects a run with invalid faults before starting any agent.
func (f *Faults) Validate() error {
	if f.LossP < 0 || f.LossP >= 1 {
		return fmt.Errorf("dynamics: fault loss probability %g outside [0, 1)", f.LossP)
	}
	if f.DelayMax < 0 {
		return fmt.Errorf("dynamics: negative fault delay %v", f.DelayMax)
	}
	return nil
}
