package runtime

import "time"

// Busy-rejection backoff bounds. minBackoff is the absolute floor of a
// non-zero window; hardMaxBackoff is a safety ceiling no adaptive state
// may exceed (an agent asleep for milliseconds would throttle quiescence
// detection far past any plausible contention level).
const (
	minBackoff     = 2 * time.Microsecond
	hardMaxBackoff = 2048 * time.Microsecond
)

// rejectionRateShift is the EWMA weight of the observed busy-rejection
// rate: rate += (observation − rate) / 2^shift, in 16.16 fixed point.
// A shift of 4 (α = 1/16) remembers roughly the last 16 initiations —
// long enough to smooth select jitter, short enough to track phase
// changes (a neighbour finishing its exchange) within tens of ops.
const (
	rejectionRateShift = 4
	rateOne            = 1 << 16 // fixed-point 1.0
)

// AIMD derives an agent's busy-backoff window from its OBSERVED
// rejection rate instead of the fixed [2µs, 512µs] doubling ladder the
// runtime previously used (ROADMAP item "adaptive backoff tuning").
//
// Two pieces compose:
//
//   - The CEILING adapts to pressure: an EWMA of the busy-rejection rate
//     scales the maximum window between minBackoff (an agent whose
//     initiations almost always land needs only a nudge of
//     desynchronization) and hardMaxBackoff (an agent in a high-degree
//     neighbourhood where most partners are mid-exchange backs off much
//     further before retrying). The fixed 512µs ceiling was tuned for
//     rings; rejection probability grows with degree, which is exactly
//     the regime a measured rate tracks and a constant cannot.
//
//   - The WINDOW moves AIMD-style under that ceiling: multiplicative
//     increase (×2) on every rejection — clashes need exponential
//     spreading, as in CSMA — and additive decrease (−minBackoff) on
//     every completed exchange, instead of the old reset-to-zero. The
//     additive decrease keeps memory of recent contention: after one
//     success amid a busy storm the old policy restarted its ladder from
//     2µs and re-collided immediately; AIMD drains the window gradually,
//     so the agent stays polite while the neighbourhood is still hot and
//     converges back to minimum backoff as it cools.
//
// The controller is scheduling state only: it decides WHEN an agent
// retries, never what it computes, so results (final multiset, target,
// conservation verdicts) are unchanged for any controller behaviour —
// the sched 1-worker golden pins exactly the fields that must not move.
// The zero value is ready to use (empty history, zero window).
type AIMD struct {
	// rate is the EWMA'd busy-rejection probability in 16.16 fixed point
	// (0 … rateOne).
	rate int64
	// window is the current backoff window; the actual deferral is
	// uniform in (0, window] so clashing agents desynchronize.
	window time.Duration
}

// observe folds one initiation outcome into the rejection-rate EWMA.
func (b *AIMD) observe(rejected bool) {
	sample := int64(0)
	if rejected {
		sample = rateOne
	}
	b.rate += (sample - b.rate) >> rejectionRateShift
}

// ceiling maps the observed rejection rate onto [minBackoff,
// hardMaxBackoff] linearly: no observed contention → the floor, every
// initiation rejected → the hard ceiling.
func (b *AIMD) ceiling() time.Duration {
	c := minBackoff + time.Duration(b.rate*int64(hardMaxBackoff-minBackoff)>>16)
	if c > hardMaxBackoff {
		c = hardMaxBackoff
	}
	return c
}

// onRejected records a busy rejection and returns the new window the
// agent should draw its deferral from: multiplicative increase, clamped to
// the rate-derived ceiling.
func (b *AIMD) OnRejected() time.Duration {
	b.observe(true)
	switch {
	case b.window < minBackoff:
		b.window = minBackoff
	default:
		b.window *= 2
	}
	if c := b.ceiling(); b.window > c {
		b.window = c
	}
	return b.window
}

// onSuccess records a completed exchange: additive decrease of the
// window (never below zero — a zero window means "initiate immediately",
// the cold-start state).
func (b *AIMD) OnSuccess() {
	b.observe(false)
	if b.window <= minBackoff {
		b.window = 0
	} else {
		b.window -= minBackoff
	}
}
