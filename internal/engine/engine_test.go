package engine

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	ms "repro/internal/multiset"
	"repro/internal/problems"
)

// TestPoolCoversEveryIndexExactlyOnce: workers claim contiguous chunks
// of chunkSize(n, workers) indices, so the batch sizes around a chunk
// boundary — the last single-item-claim size, one either side, a size
// whose final claim is partial — and a large batch must each run every
// index exactly once, on every pool size, batch after batch on one pool.
func TestPoolCoversEveryIndexExactlyOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for size := 1; size <= 4; size++ {
		edge := size * claimsPerWorker // largest n claimed one index at a time
		if chunkSize(edge, size) != 1 || chunkSize(edge+1, size) != 2 {
			t.Fatalf("size %d: chunk boundary moved: chunkSize(%d)=%d, chunkSize(%d)=%d",
				size, edge, chunkSize(edge, size), edge+1, chunkSize(edge+1, size))
		}
		p := NewPool(size, 1)
		for _, n := range []int{1, edge - 1, edge, edge + 1, 2*edge + 1, 50_000} {
			hits := make([]atomic.Int32, n)
			p.Do(n, func(worker, i int) {
				if worker < 0 || worker >= size {
					t.Errorf("size %d: worker %d out of range", size, worker)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("size %d, n %d: index %d executed %d times, want 1", size, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestPoolChunkedPanicLeavesPoolReusable: a caller-side callback that
// panics in the middle of a multi-item claim abandons the rest of that
// chunk, but the workers still finish the batch before the panic
// propagates, the slot grant comes back exactly, and the pool runs the
// next batch in full.
func TestPoolChunkedPanicLeavesPoolReusable(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	pool := NewPool(4, 1)
	defer pool.Close()
	const n = 10_000
	if chunkSize(n, 4) < 2 {
		t.Fatalf("chunkSize(%d, 4) = %d: batch too small to panic mid-chunk", n, chunkSize(n, 4))
	}
	// Workers hold their first item until the caller has run one, so the
	// caller is guaranteed a chunk to panic in however the claims race.
	callerStarted := make(chan struct{})
	callerItems := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the callback panic to propagate")
			}
		}()
		pool.Do(n, func(worker, i int) {
			if worker != 0 {
				<-callerStarted
				return
			}
			if callerItems++; callerItems == 1 {
				close(callerStarted)
				return
			}
			panic("caller-side callback failure") // second item of the caller's first chunk
		})
	}()
	budget := runtime.GOMAXPROCS(0) - 1
	if g := AcquireSlots(budget); g != budget {
		t.Fatalf("budget leaked by panic path: acquired %d of %d", g, budget)
	} else {
		ReleaseSlots(g)
	}
	hits := make([]atomic.Int32, n)
	pool.Do(n, func(_, i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("post-panic batch: index %d executed %d times, want 1", i, got)
		}
	}
}

func TestPoolRunsSeriallyBelowThreshold(t *testing.T) {
	p := NewPool(4, 100)
	defer p.Close()
	var order []int
	p.Do(10, func(worker, i int) {
		if worker != 0 {
			t.Errorf("below-threshold batch ran on worker %d, want 0", worker)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("serial batch out of order: %v", order)
		}
	}
}

func TestPoolWorkerScratchNeverShared(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	p := NewPool(4, 1)
	defer p.Close()
	// One counter per worker slot, incremented non-atomically: the race
	// detector (tests run with -race in CI) fails this test if two
	// concurrent callbacks ever share a worker index.
	scratch := make([]int, p.Size())
	p.Do(500, func(worker, i int) { scratch[worker]++ })
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != 500 {
		t.Fatalf("scratch total = %d, want 500", total)
	}
}

func TestPoolCloseWithoutUse(t *testing.T) {
	p := NewPool(2, 1)
	p.Close() // must not panic or leak
}

func TestMonitorCleanRound(t *testing.T) {
	p := problems.NewMin()
	initial := ms.OfInts(3, 1, 2)
	m := NewMonitor[int](p, initial, 0)
	if !m.Target().Equal(ms.OfInts(1, 1, 1)) {
		t.Fatalf("target = %v, want {1, 1, 1}", m.Target())
	}
	h := m.ObserveRound(0, ms.OfInts(1, 1, 2))
	if len(m.Violations()) != 0 {
		t.Fatalf("clean round produced violations: %v", m.Violations())
	}
	if h <= 0 {
		t.Fatalf("h = %g, want positive while unconverged", h)
	}
}

func TestMonitorFlagsConservationAndDescent(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	m.ObserveRound(0, ms.OfInts(5, 5, 5)) // f changed AND h grew
	v := m.Violations()
	if len(v) != 2 {
		t.Fatalf("violations = %v, want conservation + variant", v)
	}
	if !strings.Contains(v[0], "round 0: conservation law violated") {
		t.Errorf("conservation message = %q", v[0])
	}
	if !strings.Contains(v[1], "round 0: variant increased") {
		t.Errorf("variant message = %q", v[1])
	}
}

// TestMonitorRepeatVerdict pins the verdict cache's contract at the
// monitor: a stamped verdict is re-issued only for its own generation,
// re-records a standing conservation violation under the new round, and
// is dropped by every call that moves the target or the variant baseline.
func TestMonitorRepeatVerdict(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	if _, ok := m.Repeat(0, 0); ok {
		t.Fatal("fresh monitor repeated a verdict it never issued")
	}
	h := m.ObserveRound(0, ms.OfInts(5, 5, 5)) // conservation violated
	m.Stamp(7)
	if _, ok := m.Repeat(1, 8); ok {
		t.Fatal("repeated a verdict for another generation")
	}
	before := len(m.Violations())
	got, ok := m.Repeat(1, 7)
	if !ok || got != h {
		t.Fatalf("Repeat(1, 7) = %g, %v; want %g, true", got, ok, h)
	}
	v := m.Violations()
	if len(v) != before+1 || v[len(v)-1] != "round 1: conservation law violated: f(S) ≠ S*" {
		t.Fatalf("standing violation not re-issued for round 1: %q", v)
	}
	for name, drop := range map[string]func(){
		"ObserveRound":  func() { m.ObserveRound(2, ms.OfInts(5, 5, 5)) },
		"AdmitJoin":     func() { m.AdmitJoin([]int{4}) },
		"RebaseVariant": func() { m.RebaseVariant(ms.OfInts(5, 5, 5)) },
		"Reset":         func() { m.Reset(p, ms.OfInts(3, 1, 2), 0) },
	} {
		m.Stamp(7)
		drop()
		if _, ok := m.Repeat(3, 7); ok {
			t.Errorf("%s left the stamp in place", name)
		}
	}
}

func TestMonitorQuiescence(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	m.ObserveQuiescence(ms.OfInts(1, 1, 1))
	if len(m.Violations()) != 0 {
		t.Fatalf("clean quiescence produced violations: %v", m.Violations())
	}
	m.ObserveQuiescence(ms.OfInts(2, 2, 2))
	if len(m.Violations()) == 0 {
		t.Fatal("non-conserving quiescence not flagged")
	}
}

func TestMonitorCheckFrozen(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	cmp := func(a, b int) int { return a - b }
	want := []int{3, 1, 2}
	// Frozen agents whose states are untouched: clean.
	m.CheckFrozen(4, cmp, []int{0, 2}, want, []int{3, 9, 2})
	if len(m.Violations()) != 0 {
		t.Fatalf("intact frozen states flagged: %v", m.Violations())
	}
	// A frozen agent whose state drifted: violation naming agent & round.
	m.CheckFrozen(5, cmp, []int{0, 2}, want, []int{3, 9, 7})
	v := m.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "round 5: frozen agent 2") {
		t.Fatalf("violations = %v, want one naming round 5 / agent 2", v)
	}
}

func TestMonitorVerifyStep(t *testing.T) {
	p := problems.NewMin()
	m := NewMonitor[int](p, ms.OfInts(3, 1, 2), 0)
	if v := m.VerifyStep(ms.OfInts(3, 1), ms.OfInts(1, 1)); !v.OK {
		t.Errorf("valid D-step rejected: %v", v)
	}
	if v := m.VerifyStep(ms.OfInts(3, 1), ms.OfInts(4, 1)); v.OK {
		t.Error("f-breaking step accepted")
	}
	m.AddViolation("group %v: %v", []int{0, 1}, "boom")
	if want := "group [0 1]: boom"; m.Violations()[0] != want {
		t.Errorf("AddViolation = %q, want %q", m.Violations()[0], want)
	}
}

func TestConvergenceFirstReach(t *testing.T) {
	eq := func(a, b ms.Multiset[int]) bool { return a.Equal(b) }
	c := NewConvergence(eq, ms.OfInts(1, 1))
	if c.Observe(0, ms.OfInts(2, 1)) || c.Converged() {
		t.Fatal("converged before reaching target")
	}
	if !c.Reached(ms.OfInts(1, 1)) {
		t.Fatal("Reached is a stateless probe and must report true")
	}
	if c.Converged() {
		t.Fatal("Reached must not record convergence")
	}
	if !c.Observe(5, ms.OfInts(1, 1)) {
		t.Fatal("first reach not reported")
	}
	if c.Observe(6, ms.OfInts(1, 1)) {
		t.Fatal("second reach reported as first")
	}
	if c.Round() != 5 {
		t.Fatalf("Round = %d, want 5", c.Round())
	}
}

func TestSeederMatchesRawStream(t *testing.T) {
	s := NewSeeder(42)
	want := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if got, w := s.GroupSeed(), want.Int63(); got != w {
			t.Fatalf("draw %d: GroupSeed = %d, want %d", i, got, w)
		}
	}
}

func TestAgentAndEnvSeedsAreStable(t *testing.T) {
	// These derivations are part of the reproducibility contract shared
	// with the asynchronous runtime: changing them silently reseeds every
	// recorded run.
	if got := AgentSeed(10, 3); got != 10+3*7919 {
		t.Errorf("AgentSeed(10, 3) = %d", got)
	}
	if got := EnvSeed(10); got != 10^0x5eed {
		t.Errorf("EnvSeed(10) = %d", got)
	}
	seen := map[int64]bool{}
	for a := 0; a < 64; a++ {
		s := AgentSeed(7, a)
		if seen[s] {
			t.Fatalf("agent seed collision at agent %d", a)
		}
		seen[s] = true
	}
}

// TestFastRandDeterministicReseed: a Reseed must restart the stream
// exactly as a fresh FastRand with the same seed would, and distinct
// seeds must give distinct streams — the property the per-group seeding
// discipline rests on.
func TestFastRandDeterministicReseed(t *testing.T) {
	f := NewFastRand(7)
	var first [8]int64
	for i := range first {
		first[i] = f.Int63()
	}
	f.Reseed(7)
	fresh := NewFastRand(7)
	for i := range first {
		a, b := f.Int63(), fresh.Int63()
		if a != first[i] || b != first[i] {
			t.Fatalf("draw %d: reseeded=%d fresh=%d recorded=%d", i, a, b, first[i])
		}
	}
	f.Reseed(8)
	if f.Int63() == first[0] {
		t.Error("seed 8 repeats seed 7's stream")
	}
	// Float64 stays in [0,1) through the Source64 path.
	for i := 0; i < 1000; i++ {
		if v := f.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g", v)
		}
	}
}
