package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// TestShardsViewMatchesTracker: for random populations, shard counts, and
// delta batches, the merged shard view must equal the single-tracker
// snapshot after every flush.
func TestShardsViewMatchesTracker(t *testing.T) {
	cmp := ms.OrderedCmp[int]()
	rng := rand.New(rand.NewSource(17))
	pool := NewPool(2, 1)
	defer pool.Close()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		p := 1 + rng.Intn(8)
		states := make([]int, n)
		for i := range states {
			states[i] = rng.Intn(20)
		}
		sh := NewShards(cmp, states, p)
		tr := ms.NewTracker(cmp, states)
		if sh.Len() != n {
			t.Fatalf("trial %d: sharded Len %d, want %d", trial, sh.Len(), n)
		}
		for round := 0; round < 10; round++ {
			// Mutate a random subset of agents (each at most once).
			var keys, olds, news []int
			for a := 0; a < n; a++ {
				if rng.Intn(3) != 0 {
					continue
				}
				nv := rng.Intn(20)
				sh.Stage(a, states[a], nv)
				keys = append(keys, a)
				olds = append(olds, states[a])
				news = append(news, nv)
				states[a] = nv
			}
			sh.Flush(pool)
			tr.Repair(keys, olds, news)
			if got, want := sh.View(), tr.View(); !got.Equal(want) {
				t.Fatalf("trial %d round %d: sharded view %v != tracker %v (p=%d)",
					trial, round, got, want, p)
			}
		}
	}
}

// TestShardsOwnerCoversAllAgents: every agent maps to a valid shard and
// block boundaries tile the index space.
func TestShardsOwnerCoversAllAgents(t *testing.T) {
	cmp := ms.OrderedCmp[int]()
	for _, n := range []int{1, 2, 7, 16, 33} {
		for _, p := range []int{1, 2, 3, 8, 64} {
			states := make([]int, n)
			sh := NewShards(cmp, states, p)
			counts := make([]int, sh.P())
			for a := 0; a < n; a++ {
				o := sh.Owner(a)
				if o < 0 || o >= sh.P() {
					t.Fatalf("n=%d p=%d: owner(%d) = %d out of range [0,%d)", n, p, a, o, sh.P())
				}
				counts[o]++
			}
			total := 0
			for i, c := range counts {
				if c != sh.ShardView(i).Len() {
					t.Fatalf("n=%d p=%d: shard %d owns %d agents but tracks %d", n, p, i, c, sh.ShardView(i).Len())
				}
				total += c
			}
			if total != n {
				t.Fatalf("n=%d p=%d: owners cover %d agents", n, p, total)
			}
		}
	}
}

// TestShardsGrowthKeys: joiners are appended to the last shard and must
// be staged there under the keys Append gave them — also when the
// founding population leaves trailing shards empty (5 agents in 4 blocks
// of 2 fill only three), where dividing by the block size would route
// agent 5 to shard 2.
func TestShardsGrowthKeys(t *testing.T) {
	cmp := ms.OrderedCmp[int]()
	pool := NewPool(1, 1)
	defer pool.Close()
	for _, c := range []struct{ n, p int }{{5, 4}, {8, 4}, {0, 3}, {7, 1}} {
		states := make([]int, c.n)
		for i := range states {
			states[i] = 10 * i
		}
		sh := NewShards(cmp, states, c.p)
		joined := []int{7, 3}
		sh.Append(joined)
		states = append(states, joined...)
		for a := c.n; a < len(states); a++ {
			if o := sh.Owner(a); o != sh.P()-1 {
				t.Fatalf("n=%d p=%d: joiner %d owned by shard %d, want the last (%d)", c.n, c.p, a, o, sh.P()-1)
			}
		}
		for a := range states {
			sh.Stage(a, states[a], states[a]+1)
			states[a]++
		}
		sh.Flush(pool)
		if got, want := sh.View(), ms.New(cmp, states...); !got.Equal(want) {
			t.Fatalf("n=%d p=%d: view %v, want %v", c.n, c.p, got, want)
		}
	}
}

// TestObserveRoundShardedMatchesUnsharded: the sharded monitor reduction
// must produce the same h values and the same (absence of) violations as
// the unsharded ObserveRound across the super-idempotent problems.
func TestObserveRoundShardedMatchesUnsharded(t *testing.T) {
	pool := NewPool(4, 1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(23))
	pr := problems.NewMin()
	cmp := pr.Cmp()
	states := make([]int, 24)
	for i := range states {
		states[i] = rng.Intn(50)
	}
	for _, p := range []int{1, 3, 8} {
		sh := NewShards(cmp, states, p)
		tr := ms.NewTracker(cmp, states)
		monSharded := NewMonitor[int](pr, sh.View(), 0)
		monPlain := NewMonitor[int](pr, tr.View(), 0)
		work := append([]int(nil), states...)
		for round := 0; round < 8; round++ {
			// A valid D-step: a random pair adopts its minimum.
			a, b := rng.Intn(len(work)), rng.Intn(len(work))
			if a != b && work[a] != work[b] {
				m := min(work[a], work[b])
				sh.Stage(a, work[a], m)
				sh.Stage(b, work[b], m)
				tr.Repair([]int{a, b}, []int{work[a], work[b]}, []int{m, m})
				work[a], work[b] = m, m
				sh.Flush(pool)
			}
			hS := monSharded.ObserveRoundSharded(round, sh.View(), sh, pool)
			hP := monPlain.ObserveRound(round, tr.View())
			if hS != hP {
				t.Fatalf("p=%d round %d: sharded h %g != plain h %g", p, round, hS, hP)
			}
		}
		if len(monSharded.Violations()) != 0 || len(monPlain.Violations()) != 0 {
			t.Fatalf("p=%d: violations sharded=%v plain=%v", p,
				monSharded.Violations(), monPlain.Violations())
		}
	}
}

// TestObserveRoundShardedDetectsViolation: breaking conservation in one
// shard must be caught by the reduced check.
func TestObserveRoundShardedDetectsViolation(t *testing.T) {
	pool := NewPool(1, 1)
	defer pool.Close()
	pr := problems.NewMin()
	states := []int{4, 7, 2, 9, 5, 1}
	sh := NewShards(pr.Cmp(), states, 3)
	mon := NewMonitor[int](pr, sh.View(), 0)
	sh.Stage(2, 2, 3) // losing the value 2 changes the global minimum: f(S) ≠ S*
	sh.Flush(pool)
	mon.ObserveRoundSharded(0, sh.View(), sh, pool)
	if len(mon.Violations()) == 0 {
		t.Fatal("conservation violation not detected through sharded reduction")
	}
}

// secondSmallestProblem overrides Min's f with the §4.3 negative example:
// idempotent but NOT super-idempotent (and therefore unmarked).
type secondSmallestProblem struct{ *problems.Min }

func (secondSmallestProblem) F() core.Function[int] { return problems.SecondSmallestF() }

// TestObserveRoundShardedUnmarkedFallsBack: for a function without the
// super-idempotence marker, the sharded observation must fall back to
// evaluating f on the merged global snapshot — the partial-image
// reduction f(f(S_1) ∪ f(S_2)) is simply wrong for such f and would
// report a spurious conservation violation here (S = {1,2,3} split
// {1,2} | {3}: f(f({1,2}) ∪ f({3})) = f({2,2,3}) = {3,3,3} ≠ f(S) =
// {2,2,2}), so verdicts would depend on the state layout.
func TestObserveRoundShardedUnmarkedFallsBack(t *testing.T) {
	pool := NewPool(1, 1)
	defer pool.Close()
	p := secondSmallestProblem{problems.NewMin()}
	if core.IsSuperIdempotent(p.F()) {
		t.Fatal("second-smallest must not carry the super-idempotence marker")
	}
	states := []int{1, 2, 3}
	sh := NewShards(p.Cmp(), states, 2) // blocks {1,2} and {3}
	monSharded := NewMonitor[int](p, sh.View(), 0)
	monPlain := NewMonitor[int](p, ms.New(p.Cmp(), states...), 0)
	hS := monSharded.ObserveRoundSharded(0, sh.View(), sh, pool)
	hP := monPlain.ObserveRound(0, ms.New(p.Cmp(), states...))
	if hS != hP {
		t.Errorf("sharded h %g != plain h %g", hS, hP)
	}
	if v := monSharded.Violations(); len(v) != 0 {
		t.Errorf("layout-dependent verdict: sharded monitor reported %v on an unchanged state", v)
	}
	if v := monPlain.Violations(); len(v) != 0 {
		t.Errorf("plain monitor reported %v on an unchanged state", v)
	}
}

// TestMarkedFunctionsCarryMarker: the problems the engines run are
// super-idempotent (machine-checked by E9) and must be marked so the
// sharded reduction actually engages.
func TestMarkedFunctionsCarryMarker(t *testing.T) {
	if !core.IsSuperIdempotent(problems.MinF()) || !core.IsSuperIdempotent(problems.SumF()) ||
		!core.IsSuperIdempotent(problems.GCDF()) || !core.IsSuperIdempotent(problems.SortF()) ||
		!core.IsSuperIdempotent(problems.HullF()) || !core.IsSuperIdempotent(problems.MinPairF()) {
		t.Error("a super-idempotent problem f lost its marker")
	}
	if core.IsSuperIdempotent(problems.SecondSmallestF()) || core.IsSuperIdempotent(problems.CircumcircleNaiveF()) {
		t.Error("a non-super-idempotent f is marked")
	}
	// The marker must not strip the ApplyInto fast path.
	if _, ok := problems.MinF().(core.IntoFunction[int]); !ok {
		t.Error("marking min dropped its IntoFunction fast path")
	}
}

// TestPoolDoAllBypassesThreshold: DoAll must fan out even when the batch
// is below the pool's engagement threshold.
func TestPoolDoAllBypassesThreshold(t *testing.T) {
	pool := NewPool(4, 1000)
	defer pool.Close()
	got := make([]int, 8)
	pool.DoAll(len(got), func(_, i int) { got[i] = i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("item %d not executed (got %d)", i, v)
		}
	}
	// And Do must still honor the threshold (runs serially, worker 0 only).
	workers := make([]int, 8)
	pool.Do(len(workers), func(w, i int) { workers[i] = w })
	for i, w := range workers {
		if w != 0 {
			t.Fatalf("below-threshold Do used worker %d for item %d", w, i)
		}
	}
}

// TestApplyIntoFastPaths: the IntoFunction fast paths must agree with
// Apply on randomized inputs and allocate nothing once warm.
func TestApplyIntoFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fns := []core.Function[int]{problems.MinF(), problems.MaxF(), problems.SumF(), problems.GCDF()}
	for _, f := range fns {
		if _, ok := f.(core.IntoFunction[int]); !ok {
			t.Errorf("%s does not implement the IntoFunction fast path", f.Name())
			continue
		}
		var buf []int
		for trial := 0; trial < 100; trial++ {
			vals := make([]int, 1+rng.Intn(10))
			for i := range vals {
				vals[i] = rng.Intn(30)
			}
			x := ms.OfInts(vals...)
			var got ms.Multiset[int]
			got, buf = core.ApplyInto(f, buf, x)
			if want := f.Apply(x); !got.Equal(want) {
				t.Fatalf("%s: ApplyInto(%v) = %v, want %v", f.Name(), x, got, want)
			}
		}
		x := ms.OfInts(3, 1, 4, 1, 5)
		allocs := testing.AllocsPerRun(100, func() {
			_, buf = core.ApplyInto(f, buf, x)
		})
		if allocs != 0 {
			t.Errorf("%s: warm ApplyInto allocated %.0f times per run", f.Name(), allocs)
		}
	}
}
