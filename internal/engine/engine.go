// Package engine is the shared core of the two execution engines — the
// round-based simulator (internal/sim) and the asynchronous message-passing
// runtime (internal/sched).
//
// Both engines realize the same execution model (Chandy & Charpentier,
// ICDCS 2007, §2.1): agents transitions interleave with environment
// transitions, every agents transition must be a step of the relation D,
// and the run is judged by the same pair of global properties — the
// conservation law f(S) = S* (§3.2) and the monotone descent of the
// variant h (§3.5). Before this package existed those monitors, the
// convergence detector, and the deterministic seeding discipline were
// implemented twice and had started to diverge; sim and sched now build
// on the primitives here:
//
//   - Monitor: conservation-law checking, variant-descent checking, and
//     D-step verification (the proof obligation "R implements D" of §3.7)
//     with the violation-reporting format both engines share;
//   - Convergence: the target S* = f(S(0)) and first-reach detection;
//   - Seeder: deterministic per-group child seeds drawn from the master
//     stream in group order (so results are independent of goroutine
//     scheduling), plus the per-agent and environment seed derivations the
//     asynchronous runtime uses;
//   - Pool: a persistent worker pool sized to GOMAXPROCS that replaces the
//     goroutine-per-group-per-round pattern, engaging only above a
//     group-count threshold so small systems run serially and
//     allocation-free.
package engine

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	ms "repro/internal/multiset"
)

// Monitor watches one run of either engine for violations of the paper's
// two global invariants and verifies individual steps against the relation
// D. It is NOT safe for concurrent use; engines observe from their
// coordinating goroutine.
type Monitor[T any] struct {
	f     core.Function[T]
	h     core.Variant[T]
	equal func(a, b ms.Multiset[T]) bool
	// hEps is the strict-decrease slack for D-step and descent checking (0
	// for exact integer variants; geometry problems pass a tolerance).
	hEps       float64
	target     ms.Multiset[T]
	lastH      float64
	violations []string
	// fBuf backs the per-round f evaluation when f provides the
	// core.IntoFunction fast path, so the conservation check allocates
	// nothing in steady state.
	fBuf []T
	// Sharded-observation scratch (see ObserveRoundSharded): per-shard f
	// images, their backing buffers, and the merger that reduces them.
	partials    []ms.Multiset[T]
	partialBufs [][]T
	partialMrg  *ms.Merger[T]
	// Verdict cache (see Repeat): whether the last judged state satisfied
	// the conservation law, and the state generation that verdict is
	// stamped with (valid only while stamped is set).
	conserved  bool
	stamped    bool
	verdictGen uint64
}

// NewMonitor builds a Monitor for problem p from the initial state
// multiset: the target S* = f(S(0)) is fixed here, and the variant
// baseline is h(S(0)).
func NewMonitor[T any](p core.Problem[T], initial ms.Multiset[T], hEps float64) *Monitor[T] {
	m := &Monitor[T]{}
	m.Reset(p, initial, hEps)
	return m
}

// Reset rebinds the monitor to a new run — problem p, initial state
// multiset, slack — keeping the per-round evaluation buffers (fBuf, the
// sharded partial-image scratch) warm, so a monitor reused across the
// cells of a scenario sweep re-pays none of its steady-state scratch.
// The target multiset and the violations slice are deliberately NOT
// reused: both are retained by callers through Result, so each run gets
// fresh storage for them.
func (m *Monitor[T]) Reset(p core.Problem[T], initial ms.Multiset[T], hEps float64) {
	m.f, m.h, m.equal, m.hEps = p.F(), p.H(), p.Equal, hEps
	m.target = m.f.Apply(initial)
	m.lastH = m.h.Value(initial)
	m.violations = nil
	m.partialMrg = nil // f (and hence cmp) may have changed with the problem
	m.stamped = false
}

// Target returns the goal multiset S* = f(S(0)).
func (m *Monitor[T]) Target() ms.Multiset[T] { return m.target }

// ObserveRound checks the global state after a round: the conservation law
// f(S) = S* and the monotone descent of h relative to the previous
// observation. It returns the current h value. f is evaluated through the
// core.ApplyInto fast path into a monitor-owned buffer, so for functions
// that provide it the check allocates nothing.
func (m *Monitor[T]) ObserveRound(round int, now ms.Multiset[T]) float64 {
	var fx ms.Multiset[T]
	fx, m.fBuf = core.ApplyInto(m.f, m.fBuf, now)
	return m.judge(round, fx, now)
}

// judge is the verdict tail shared by ObserveRound and
// ObserveRoundSharded: the conservation verdict on the (already
// evaluated) f image fx, and the descent check of h on the global state —
// one copy, so the sharded and unsharded monitors cannot drift apart in
// message format or slack handling.
func (m *Monitor[T]) judge(round int, fx, global ms.Multiset[T]) float64 {
	m.stamped = false
	if m.conserved = m.equal(fx, m.target); !m.conserved {
		m.conservationViolated(round)
	}
	nowH := m.h.Value(global)
	if nowH > m.lastH+m.hEps {
		m.violations = append(m.violations,
			fmt.Sprintf("round %d: variant increased %g → %g", round, m.lastH, nowH))
	}
	m.lastH = nowH
	return nowH
}

// conservationViolated records a round's conservation-law violation; the
// full and the repeated verdict share it so their messages cannot drift.
func (m *Monitor[T]) conservationViolated(round int) {
	m.violations = append(m.violations,
		fmt.Sprintf("round %d: conservation law violated: f(S) ≠ S*", round))
}

// Stamp marks the verdict of the round just observed as the verdict of
// state generation gen (multiset.Tracker.Gen or Shards.Gen, read after
// the round's deltas were applied), so Repeat may re-issue it while the
// generation stands still.
func (m *Monitor[T]) Stamp(gen uint64) { m.stamped, m.verdictGen = true, gen }

// Repeat re-issues the last verdict for round when the state generation
// is still the stamped gen, and reports false (issuing nothing) when the
// caller must observe the round in full. An unchanged generation means
// the global multiset S is the one last judged, and every verdict is a
// function of S, the target and the variant baseline: f(S) = S* gets the
// same answer — a standing conservation violation is recorded again,
// under the new round number, exactly as a full observation would — and
// h(S) equals the baseline it set, so it neither descends nor increases.
// The returned h is that baseline. The stamp is dropped by Reset,
// AdmitJoin and RebaseVariant (they move the target or the baseline) and
// by every full observation until it is stamped again.
func (m *Monitor[T]) Repeat(round int, gen uint64) (float64, bool) {
	if !m.stamped || gen != m.verdictGen {
		return 0, false
	}
	if !m.conserved {
		m.conservationViolated(round)
	}
	return m.lastH, true
}

// ObserveQuiescence checks the conservation law and the net variant
// descent once, against the final state of a run whose intermediate states
// are not observable (the asynchronous runtime: the global multiset passes
// through transient states while a pair exchange is in flight, so the
// invariants are asserted at quiescence).
func (m *Monitor[T]) ObserveQuiescence(final ms.Multiset[T]) {
	var fx ms.Multiset[T]
	fx, m.fBuf = core.ApplyInto(m.f, m.fBuf, final)
	if !m.equal(fx, m.target) {
		m.violations = append(m.violations,
			"quiescence: conservation law violated: f(S) ≠ S*")
	}
	if nowH := m.h.Value(final); nowH > m.lastH+m.hEps {
		m.violations = append(m.violations,
			fmt.Sprintf("quiescence: variant increased %g → %g", m.lastH, nowH))
	}
}

// AdmitJoin extends the conservation target for a sanctioned population
// growth: target' = f(target ∪ joined) = f(f(S(0)) ∪ joined). When f is
// super-idempotent this is EXACTLY f(S(0) ∪ joined) by §3.4
// (f(f(X) ∪ Y) = f(X ∪ Y)) — the target a fresh run over the whole
// population would fix — so admitting joiners against the already-reduced
// target never masks or manufactures a violation. The variant baseline is
// NOT touched here; callers rebase it (RebaseVariant) after the join is
// applied to the state, since new input may legitimately raise h.
func (m *Monitor[T]) AdmitJoin(joined []T) {
	m.stamped = false
	if len(joined) == 0 {
		return
	}
	y := ms.New(m.target.Cmp(), joined...)
	m.target = m.f.Apply(m.target.Union(y))
}

// RebaseVariant resets the variant baseline to h(now). Sanctioned
// discontinuities — a join injecting fresh input, an amnesiac rejoin
// resetting an agent to its initial state — may raise h without any agent
// taking an illegal step; callers invoke this at such rounds so the
// descent check resumes from the post-discontinuity value instead of
// reporting the jump as a violation.
func (m *Monitor[T]) RebaseVariant(now ms.Multiset[T]) {
	m.lastH = m.h.Value(now)
	m.stamped = false
}

// CheckFrozen verifies the dynamics layer's frozen-state contract: a
// crashed agent "executes no actions and does not change state", so for
// every agent in frozen (ids into the positional state array) the
// current state must equal the state recorded when the agent crashed
// (want, indexed by agent id). Any drift is an engine bug — a group or
// matching that included a supposedly excluded agent — and is recorded
// as a monitor violation like any conservation failure.
func (m *Monitor[T]) CheckFrozen(round int, cmp func(a, b T) int, frozen []int, want, states []T) {
	for _, a := range frozen {
		if cmp(want[a], states[a]) != 0 {
			m.violations = append(m.violations,
				fmt.Sprintf("round %d: frozen agent %d changed state while crashed", round, a))
		}
	}
}

// VerifyStep decides whether before → after is a step of the relation D
// under the monitor's f, h, equality, and slack — proof obligation
// "R implements D" as a runtime check.
func (m *Monitor[T]) VerifyStep(before, after ms.Multiset[T]) core.StepVerdict {
	return core.CheckDStep(m.f, m.h, m.equal, before, after, m.hEps)
}

// AddViolation records a formatted violation.
func (m *Monitor[T]) AddViolation(format string, args ...any) {
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// Violations returns the violations recorded so far (nil on a clean run).
func (m *Monitor[T]) Violations() []string { return m.violations }

// Convergence detects the first time a run's state multiset reaches the
// target S*.
type Convergence[T any] struct {
	equal     func(a, b ms.Multiset[T]) bool
	target    ms.Multiset[T]
	converged bool
	round     int
}

// NewConvergence builds a detector for the given target under the given
// multiset equality.
func NewConvergence[T any](equal func(a, b ms.Multiset[T]) bool, target ms.Multiset[T]) *Convergence[T] {
	return &Convergence[T]{equal: equal, target: target}
}

// Reached reports whether now equals the target, without recording
// anything — the stateless probe used by pollers.
func (c *Convergence[T]) Reached(now ms.Multiset[T]) bool { return c.equal(now, c.target) }

// Observe records the state after `rounds` rounds (or operations) and
// returns true exactly when this observation is the first to reach the
// target.
func (c *Convergence[T]) Observe(rounds int, now ms.Multiset[T]) bool {
	if c.converged || !c.equal(now, c.target) {
		return false
	}
	c.converged = true
	c.round = rounds
	return true
}

// Retarget rebinds the detector to a new target and clears any earlier
// first-reach record — the population-growth path: a join changes
// S* = f(S(0) ∪ joined), so the run must (re)reach the NEW target and
// Round reports the first reach of the final population's target.
func (c *Convergence[T]) Retarget(target ms.Multiset[T]) {
	c.target = target
	c.converged = false
	c.round = 0
}

// Converged reports whether any observation reached the target.
func (c *Convergence[T]) Converged() bool { return c.converged }

// Round returns the observation index recorded at first reach (0 when the
// target was never reached).
func (c *Convergence[T]) Round() int { return c.round }

// Seeder derives all of a run's randomness from one master seed so runs
// are reproducible bit for bit regardless of scheduling.
type Seeder struct {
	master *rand.Rand
}

// NewSeeder builds a Seeder over the master stream for the given seed.
func NewSeeder(seed int64) *Seeder {
	//lint:ignore detrand the sanctioned root: this IS the master stream every substream derives from, constructed once per run; its stdlib source is golden-pinned (swapping it re-pins every golden in the repo)
	return &Seeder{master: rand.New(rand.NewSource(seed))}
}

// Reset restarts the master stream at seed, in place. The resulting
// stream is identical to a fresh NewSeeder(seed) — rand.Rand.Seed
// rebuilds the source state deterministically — without re-allocating
// the source's ~5 KiB lagged-Fibonacci table, which matters when a warm
// engine executes thousands of sweep cells back to back.
func (s *Seeder) Reset(seed int64) { s.master.Seed(seed) }

// Master returns the master stream: environment transitions, matchings,
// and group-seed draws all consume from it in a deterministic order.
func (s *Seeder) Master() *rand.Rand { return s.master }

// GroupSeed draws the child seed for the next group in group order. Each
// group's step runs on a private stream seeded from this value, so results
// are independent of which worker executes the group and when.
func (s *Seeder) GroupSeed() int64 { return s.master.Int63() }

// AgentSeed derives the per-agent stream seed the asynchronous runtime
// gives each agent goroutine (7919 is prime, so agent streams are spread
// across the seed space).
func AgentSeed(base int64, agent int) int64 { return base + int64(agent)*7919 }

// EnvSeed derives the asynchronous runtime's environment (link-churn)
// stream seed from the run seed.
func EnvSeed(base int64) int64 { return base ^ 0x5eed }
