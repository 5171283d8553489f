package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// leakyMin is Min with a deliberately NON-conserving step: a group that
// disagrees jumps to leakCeil, which raises h and breaks f(S) = S*. Once
// every agent holds leakCeil every step is a stutter, so the run ends in
// quiescent rounds that repeat a standing conservation violation — the
// case the cached monitor verdict must re-issue byte for byte.
type leakyMin struct{ *problems.Min }

const leakCeil = 1000

func (leakyMin) GroupStep(states []int, _ *rand.Rand) []int {
	out := slices.Clone(states)
	for _, v := range states {
		if v != states[0] {
			for i := range out {
				out[i] = leakCeil
			}
			break
		}
	}
	return out
}

func (leakyMin) PairStep(a, b int, _ *rand.Rand) (int, int) {
	if a != b {
		return leakCeil, leakCeil
	}
	return a, b
}

// TestCachedVerdictMatchesFullMonitor runs a non-conserving problem into
// quiescence and replays every round through a second Monitor that
// evaluates f, h and the target from scratch on the live positional
// states. Violations and HTrace must match it exactly, in every layout
// and mode, and the run must actually have taken the cached path (rounds
// whose snapshot generation did not move).
func TestCachedVerdictMatchesFullMonitor(t *testing.T) {
	vals := []int{9, 4, 7, 1, 8, 2, 6, 5, 3, 0, 11, 12}
	for _, mode := range []Mode{ComponentMode, PairwiseMode} {
		for _, shards := range []int{-1, 1, 3} {
			t.Run(fmt.Sprintf("%v/shards=%d", mode, shards), func(t *testing.T) {
				p := leakyMin{problems.NewMin()}
				rc := engine.NewRunContext(0)
				defer rc.Close()
				sc := NewScratch[int](rc)
				ref := engine.NewMonitor[int](p, ms.New(p.Cmp(), vals...), 0)
				var refH []float64
				var lastGen uint64
				cached := 0
				opts := Options{Seed: 5, Mode: mode, Shards: shards, MaxRounds: 60, RecordH: true}
				opts.OnRound = func(ri RoundInfo) {
					refH = append(refH, ref.ObserveRound(ri.Round, ms.New(p.Cmp(), sc.r.states...)))
					if gen := sc.r.snapshotGen(); ri.Round > 0 && gen == lastGen {
						cached++
					} else {
						lastGen = gen
					}
				}
				res, err := RunWith(sc, p, env.NewEdgeChurn(graph.Ring(len(vals)), 0.5), vals, opts)
				if err != nil {
					t.Fatal(err)
				}
				if cached == 0 || cached == res.Rounds-1 {
					t.Fatalf("%d of %d rounds left the snapshot unchanged; want both cached and full rounds", cached, res.Rounds)
				}
				if !slices.Equal(res.Violations, ref.Violations()) {
					t.Fatalf("violations differ from the full monitor:\n got %q\nwant %q", res.Violations, ref.Violations())
				}
				if !slices.Equal(res.HTrace, refH) {
					t.Fatalf("HTrace differs from the full monitor:\n got %v\nwant %v", res.HTrace, refH)
				}
				if n := len(res.Violations); n == 0 || res.Violations[n-1] != fmt.Sprintf("round %d: conservation law violated: f(S) ≠ S*", res.Rounds-1) {
					t.Fatalf("the final quiescent round did not repeat the standing violation: %q", res.Violations)
				}
			})
		}
	}
}

// TestClassifyPairMatchesClassifyStep is the property behind the pair
// classifier: on random pairs, one comparison per side yields exactly
// the (proper, changed) of the general sort-and-compare classifyStep.
// Values are drawn from a tiny range so equal values and swap stutters —
// the step a pair straddling a shard boundary takes in swapMin — are
// frequent, for int under exact equality and for Average's float
// tolerance, where a nudge below Tol is changed but not proper.
func TestClassifyPairMatchesClassifyStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ri := &runner[int]{p: problems.NewMin(), cmp: problems.NewMin().Cmp()}
	for trial := 0; trial < 20_000; trial++ {
		a, b := rng.Intn(4), rng.Intn(4)
		na, nb := rng.Intn(4), rng.Intn(4)
		switch rng.Intn(3) {
		case 0:
			na, nb = b, a // swap stutter
		case 1:
			na, nb = a, b // plain stutter
		}
		checkClassifyPair(t, ri, a, b, na, nb)
	}
	const tol = 1e-6
	rf := &runner[float64]{p: problems.NewAverage(tol), cmp: problems.NewAverage(tol).Cmp()}
	nudges := []float64{0, tol / 4, -tol / 4, 2 * tol, -2 * tol}
	for trial := 0; trial < 20_000; trial++ {
		a, b := float64(rng.Intn(3)), float64(rng.Intn(3))
		na, nb := a, b
		switch rng.Intn(4) {
		case 0:
			na, nb = b, a
		case 1:
			m := (a + b) / 2
			na, nb = m, m
		}
		na += nudges[rng.Intn(len(nudges))]
		nb += nudges[rng.Intn(len(nudges))]
		checkClassifyPair(t, rf, a, b, na, nb)
	}
	checkClassifyPair(t, rf, math.NaN(), 1, 1, math.NaN())
}

func checkClassifyPair[T any](t *testing.T, r *runner[T], a, b, na, nb T) {
	t.Helper()
	proper, changed := r.classifyPair(a, b, na, nb)
	wantProper, wantChanged := r.classifyStep([]T{a, b}, []T{na, nb})
	if proper != wantProper || changed != wantChanged {
		t.Fatalf("(%v,%v)→(%v,%v): classifyPair = (%v,%v), classifyStep = (%v,%v)",
			a, b, na, nb, proper, changed, wantProper, wantChanged)
	}
}
