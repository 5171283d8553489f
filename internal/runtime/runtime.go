// Package runtime holds the two pieces of the asynchronous runtime that
// live outside internal/sched: Result, the report of an asynchronous run
// (with ProperStepsPerSec), and AIMD, the busy-backoff controller the
// scheduler turns into admission-control deadlines. The runtime itself —
// the push-pull/busy-guard exchange protocol of the paper's §4.5 remark,
// executed on sharded event loops — is internal/sched.Run.
//
// Nothing else belongs here. The package survives only because the
// repository benchmark (perfbench) names runtime.Result, and the
// benchmark's files change only in a benchmark change; at the next one
// both types fold into sched.
package runtime

import (
	"time"

	"repro/internal/dynamics"
	ms "repro/internal/multiset"
)

// Result reports an asynchronous run.
type Result[T any] struct {
	// Converged reports whether the final multiset equals f(S(0)).
	Converged bool
	// Ops counts initiated exchanges (including busy rejections).
	Ops int
	// ProperSteps counts exchanges that changed the pair's multiset.
	ProperSteps int
	// Violations lists monitor failures asserted at quiescence (the
	// conservation law f(S) = S* and the net descent of the variant h)
	// and scheduler audit failures (a run that drained with work left);
	// empty on a correct run.
	Violations []string
	// Final holds the final (positional) agent states.
	Final []T
	// Target is f(S(0)).
	Target ms.Multiset[T]
	// QuiescenceChecks counts how many times the quiescence detector
	// examined the observation board. The detector is event-driven — it
	// runs only after some agent adopted a new state — so this is bounded
	// by the number of adoptions (at most 2·Ops), never by wall-clock
	// time; tests pin this bound to keep a busy-poll loop from coming
	// back.
	QuiescenceChecks int
	// Rejections counts busy-rejected initiations — the contention signal
	// the adaptive AIMD backoff feeds on (Rejections ≤ Ops −
	// ProperSteps).
	Rejections int
	// Lost counts initiated exchanges whose request was dropped in
	// transit by the fault layer (0 when no faults are injected).
	Lost int
	// Elapsed is the wall-clock duration of the run, stamped via the
	// sanctioned obs clock so throughput is derivable without benchmark
	// scaffolding.
	Elapsed time.Duration
	// Steals counts run-queue steals by idle workers.
	Steals int
	// Dynamics reports what a dynamics schedule actually did (crashes,
	// recoveries, joins, amnesiac resets); nil when no schedule ran.
	Dynamics *dynamics.Report
}

// ProperStepsPerSec derives the throughput figure the E20 scaling table
// reports: proper steps per wall-clock second, 0 when Elapsed is zero
// (a run that converged before its clock ticked, or a hand-built Result).
func (r *Result[T]) ProperStepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ProperSteps) / r.Elapsed.Seconds()
}
