package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/problems"
	"repro/internal/runtime"
)

// protocolCase is one end-to-end run and its oracle: check returns "" when
// the result is right.
type protocolCase struct {
	name string
	run  func(t *testing.T, o Options) string
}

// expect builds a protocolCase body for problem p over g. Every case also
// asserts a clean monitor and the event-driven quiescence bound: the board
// is examined at most once per adoption, and an exchange adopts at most
// twice, so QuiescenceChecks ≤ 2·Ops + 1 whatever the wall-clock time.
func expect[T any](p core.Problem[T], g *graph.Graph, initial []T, tweak func(*Options), check func(*runtime.Result[T]) string) func(*testing.T, Options) string {
	return func(t *testing.T, o Options) string {
		if tweak != nil {
			tweak(&o)
		}
		res, err := Run(p, g, initial, o)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(res.Violations) != 0:
			return fmt.Sprintf("violations: %v", res.Violations)
		case res.QuiescenceChecks > 2*res.Ops+1:
			return fmt.Sprintf("QuiescenceChecks = %d exceeds the adoption bound 2·%d+1: the detector is polling", res.QuiescenceChecks, res.Ops)
		}
		return check(res)
	}
}

// converged checks convergence and that every final state satisfies ok.
func converged[T any](ok func(i int, v T) bool) func(*runtime.Result[T]) string {
	return func(res *runtime.Result[T]) string {
		if !res.Converged {
			return fmt.Sprintf("did not converge after %d ops: %v", res.Ops, res.Final)
		}
		for i, v := range res.Final {
			if !ok(i, v) {
				return fmt.Sprintf("final[%d] = %v in %v", i, v, res.Final)
			}
		}
		return ""
	}
}

// TestSchedProblems runs every problem family, link churn and the budget
// stop through the protocol, once on the deterministic single worker and
// once on four racing ones.
func TestSchedProblems(t *testing.T) {
	sorting, err := problems.NewSorting([]int{4, 1, 3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	twoPairs, err := graph.New("two-pairs", 4, []graph.Edge{{A: 0, B: 1}, {A: 2, B: 3}})
	if err != nil {
		t.Fatal(err)
	}
	hull := problems.Fig2Configuration()
	allUnion := problems.SetOf(0, 1, 2, 3, 4, 5)
	cases := []protocolCase{
		{"average", expect[float64](problems.NewAverage(1e-6), graph.Complete(5), []float64{1, 2, 3, 4, 10}, nil,
			converged(func(_ int, v float64) bool { return math.Abs(v-4) <= 1e-5 }))},
		{"sorting", expect[problems.Item](sorting, graph.Line(5), problems.InitialItems([]int{4, 1, 3, 0, 2}), nil,
			converged(func(i int, it problems.Item) bool { return it.Index == i && it.Value == i }))},
		{"hull", expect[problems.HullState](problems.NewHull(hull), graph.Ring(len(hull)), problems.InitialHulls(hull), nil,
			converged(func(int, problems.HullState) bool { return true }))},
		{"minpair", expect[problems.Pair](problems.NewMinPair(4, 10), graph.Complete(4), problems.InitialPairs([]int{3, 5, 3, 7}), nil,
			converged(func(_ int, p problems.Pair) bool { return p == problems.Pair{X: 3, Y: 5} }))},
		{"setunion", expect[problems.Set](problems.NewSetUnion(), graph.Ring(6),
			[]problems.Set{problems.SetOf(0), problems.SetOf(1), problems.SetOf(2), problems.SetOf(3), problems.SetOf(4), problems.SetOf(5)}, nil,
			converged(func(_ int, s problems.Set) bool { return s == allUnion }))},
		{"range", expect[problems.Tuple[int, int]](problems.NewRange(16), graph.Complete(5), problems.InitialTuples([]int{9, 4, 7, 1, 8}), nil,
			converged(func(_ int, v problems.Tuple[int, int]) bool { return v == problems.Tuple[int, int]{A: 1, B: 9} }))},
		{"gcd", expect[int](problems.NewGCD(), graph.Line(5), []int{12, 18, 30, 48, 6}, nil,
			converged(func(_ int, v int) bool { return v == 6 }))},
		{"min/churn", expect[int](problems.NewMin(), graph.Ring(8), []int{9, 4, 7, 1, 8, 2, 6, 5},
			func(o *Options) { o.LinkUpProbability = 0.3 },
			converged(func(_ int, v int) bool { return v == 1 }))},
		{"sum/churn", expect[int](problems.NewSum(), graph.Complete(5), []int{4, 1, 6, 2, 7},
			func(o *Options) { o.LinkUpProbability = 0.5 },
			func(res *runtime.Result[int]) string {
				total := 0
				for _, v := range res.Final {
					total += v
				}
				if !res.Converged || total != 20 {
					return fmt.Sprintf("converged=%v, final %v sums to %d, want 20", res.Converged, res.Final, total)
				}
				return ""
			})},
		{"min/same-value-every-seed", func(t *testing.T, o Options) string {
			for seed := int64(0); seed < 5; seed++ {
				o.Seed = seed
				if msg := expect[int](problems.NewMin(), graph.Complete(6), []int{8, 3, 9, 5, 4, 7}, nil,
					converged(func(_ int, v int) bool { return v == 3 }))(t, o); msg != "" {
					return fmt.Sprintf("seed %d: %s", seed, msg)
				}
			}
			return ""
		}},
		{"budget-stop/two-components", expect[int](problems.NewMin(), twoPairs, []int{4, 3, 2, 1},
			func(o *Options) { o.MaxOps = 200 },
			func(res *runtime.Result[int]) string {
				if res.Converged || res.Ops != 200 {
					return fmt.Sprintf("converged=%v ops=%d: a disconnected system must stop on its 200-op budget", res.Converged, res.Ops)
				}
				return ""
			})},
	}
	for _, workers := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				start := time.Now()
				if msg := c.run(t, Options{Seed: 1, Workers: workers, Timeout: 20 * time.Second}); msg != "" {
					t.Error(msg)
				}
				// Every case ends by convergence or budget long before the
				// wall-clock net: a slow one waited on a lost wakeup.
				if el := time.Since(start); el > 5*time.Second {
					t.Errorf("took %v", el)
				}
			})
		}
	}
}

// TestSchedTransitions pins the agent state machine over every (state,
// event) pair: the next state and the change to runnable, or a panic for
// a pair only a broken ownership invariant can produce.
func TestSchedTransitions(t *testing.T) {
	const bad = agentState(255) // the pair must panic
	pending := stRunning | stPending
	events := []string{"deliver", "pop queue", "pop heap", "park", "requeue", "defer"}
	table := []struct {
		from  agentState
		next  [6]agentState
		delta [6]int64
	}{
		{stIdle, [6]agentState{stQueued, bad, bad, bad, bad, bad}, [6]int64{1}},
		{stQueued, [6]agentState{stQueued, stRunning, bad, bad, bad, bad}, [6]int64{}},
		{stDeferred, [6]agentState{stQueued, bad, stRunning, bad, bad, bad}, [6]int64{}},
		{stRunning, [6]agentState{pending, bad, bad, stIdle, stQueued, stDeferred}, [6]int64{3: -1}},
		{pending, [6]agentState{pending, bad, bad, stQueued, stQueued, stQueued}, [6]int64{}},
	}
	for _, row := range table {
		for ev := evDeliver; ev <= evDefer; ev++ {
			want, wantD := row.next[ev], row.delta[ev]
			got, d, panicked := func() (s agentState, d int64, panicked bool) {
				defer func() { panicked = recover() != nil }()
				s, d = transition(row.from, ev)
				return s, d, false
			}()
			switch {
			case want == bad && !panicked:
				t.Errorf("state %d, %s: got %d (runnable %+d), want a panic", row.from, events[ev], got, d)
			case want != bad && panicked:
				t.Errorf("state %d, %s: panicked, want %d (runnable %+d)", row.from, events[ev], want, wantD)
			case want != bad && (got != want || d != wantD):
				t.Errorf("state %d, %s: got %d (runnable %+d), want %d (runnable %+d)", row.from, events[ev], got, d, want, wantD)
			}
		}
	}
}

// TestSchedStaleDeferral: a delivery to a deferred agent strands its heap
// entry. The agent must then run from the run queue, and when it defers
// again the stranded entry must be dropped — neither dispatched nor the
// deadline a fast-forward moves the virtual clock to.
func TestSchedStaleDeferral(t *testing.T) {
	r := &run[int]{blockSize: 1, state: []agentState{stDeferred}, gen: []uint32{0}}
	r.shards = []shard[int]{{wake: make(chan struct{}, 1)}}
	r.runnable.Store(1)
	sh := &r.shards[0]
	sh.heapPush(deferEntry{due: 100, agent: 0, gen: 0})

	sh.mu.Lock()
	r.enqueueLocked(sh, 0)
	if r.state[0] != stQueued || r.runnable.Load() != 1 {
		t.Fatalf("after delivery: state %d runnable %d, want queued and 1", r.state[0], r.runnable.Load())
	}
	if a, ok := r.next(sh, 0); !ok || a != 0 || r.state[0] != stRunning {
		t.Fatalf("first claim: agent %d ok %v state %d, want agent 0 running", a, ok, r.state[0])
	}
	r.finish(sh, 0, evDefer, 200)
	// Nothing else is queued, so the next claim fast-forwards past the
	// stale entry (due 100) to the live one (due 200).
	if a, ok := r.next(sh, 0); !ok || a != 0 || r.state[0] != stRunning {
		t.Fatalf("second claim: agent %d ok %v state %d, want agent 0 running", a, ok, r.state[0])
	}
	if len(sh.deferred) != 0 || r.vnow.Load() != 200 {
		t.Fatalf("heap %v, clock %d: want an empty heap and the clock at the live deadline 200", sh.deferred, r.vnow.Load())
	}
}

// TestSchedFinishWakesHome: a worker that finishes a stolen agent pushes
// it back onto the agent's home shard, and must wake that shard's sleeping
// owner — only the owner fast-forwards the shard's heap, so a deferral
// left there unannounced could wait out the wall-clock timeout.
func TestSchedFinishWakesHome(t *testing.T) {
	for _, out := range []schedEvent{evRequeue, evDefer} {
		r := &run[int]{blockSize: 1, state: []agentState{stRunning}, gen: []uint32{0}}
		r.shards = []shard[int]{{wake: make(chan struct{}, 1), sleeping: true}}
		r.runnable.Store(1)
		sh := &r.shards[0]
		r.finish(sh, 0, out, 10)
		select {
		case <-sh.wake:
		default:
			t.Errorf("event %d: the home worker was left asleep", out)
		}
		if sh.sleeping {
			t.Errorf("event %d: sleeping mark not cleared", out)
		}
	}
}

// TestSchedLagging: a worker that has not come round its loop for more
// than maxLag initiations makes every other worker wait; one within
// maxLag or asleep does not, and no worker waits for itself. Waking a
// sleeper — directly or by finishing an agent onto its shard — counts it
// as seen at the current op, so a woken worker slow to run is waited for.
func TestSchedLagging(t *testing.T) {
	r := &run[int]{blockSize: 1, maxLag: 100, state: []agentState{stRunning, stIdle, stIdle}, gen: make([]uint32, 3)}
	r.shards = make([]shard[int], 3)
	for i := range r.shards {
		r.shards[i].wake = make(chan struct{}, 1)
	}
	r.runnable.Store(1)
	r.ops.Store(1000)
	r.shards[0].seenAt.Store(1000)
	r.shards[1].seenAt.Store(900)
	r.shards[2].seenAt.Store(asleep)
	for w := range r.shards {
		if r.lagging(w, r.ops.Load()) {
			t.Fatalf("worker %d waits, but worker 1 is only maxLag behind", w)
		}
	}
	r.ops.Store(1001)
	if !r.lagging(0, r.ops.Load()) || !r.lagging(2, r.ops.Load()) {
		t.Fatal("worker 1 is maxLag+1 behind, but workers 0 and 2 do not wait")
	}
	if r.lagging(1, r.ops.Load()) {
		t.Fatal("worker 1 waits for itself")
	}

	r.shards[1].seenAt.Store(1001)
	r.shards[2].sleeping = true
	r.shards[2].wakeIfSleeping(r.ops.Load())
	r.ops.Store(1102)
	r.shards[0].seenAt.Store(1102)
	r.shards[1].seenAt.Store(1102)
	if !r.lagging(0, r.ops.Load()) {
		t.Fatal("worker 2 was woken at op 1001 and has not run since, but worker 0 does not wait")
	}

	r.shards[2].seenAt.Store(1102)
	r.shards[0].seenAt.Store(asleep)
	r.shards[0].sleeping = true
	r.finish(&r.shards[0], 0, evRequeue, 0)
	r.ops.Store(1203)
	r.shards[1].seenAt.Store(1203)
	r.shards[2].seenAt.Store(1203)
	if !r.lagging(1, r.ops.Load()) {
		t.Fatal("finish woke worker 0 at op 1102 and it has not run since, but worker 1 does not wait")
	}
}

// TestSchedLagGate: a worker parked behind a laggard stays parked until
// the laggard publishes a fresh seenAt, then republishes its own; a stop
// releases it too.
func TestSchedLagGate(t *testing.T) {
	r := &run[int]{maxLag: 100}
	r.shards = make([]shard[int], 2)
	r.lag.cond = sync.NewCond(&r.lag.mu)
	r.ops.Store(1000)
	park := func() chan struct{} {
		done := make(chan struct{})
		go func() {
			r.waitForLaggard(0, &r.shards[0])
			close(done)
		}()
		for deadline := time.Now().Add(5 * time.Second); r.lag.waiters.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("worker 0 never parked behind a laggard")
			}
			time.Sleep(time.Millisecond)
		}
		return done
	}
	released := func(done chan struct{}, why string) {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("worker 0 still parked after %s", why)
		}
	}

	done := park()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("worker 0 left the gate while worker 1 still lagged")
	default:
	}
	r.shards[1].seenAt.Store(1000)
	r.lag.wakeIfWaiting()
	released(done, "the laggard published")
	if got := r.shards[0].seenAt.Load(); got != 1000 {
		t.Fatalf("worker 0 left the gate with seenAt %d, want the current op 1000", got)
	}

	r.ops.Store(2000)
	done = park()
	r.stop.Store(true)
	r.lag.broadcast()
	released(done, "the run stopped")
}

// TestSchedClockTicksPerInitiation: every initiation moves the virtual
// clock by one tick, also after a fast-forward has put it ahead of ops —
// otherwise deferrals due just after the jump wait for an idle worker.
func TestSchedClockTicksPerInitiation(t *testing.T) {
	p := problems.NewMin()
	r := &run[int]{p: p, g: graph.Ring(4), cmp: p.Cmp(), initVals: []int{4, 3, 2, 1},
		opts: Options{Workers: 1, MaxOps: 100, LinkUpProbability: 1}}
	r.setup(4)
	r.vnow.Store(50) // a fast-forward left the clock ahead of ops
	rng := engine.NewFastRand(1)
	for i, a := range []int32{0, 2} {
		r.initiate(a, rng)
		if got, want := r.vnow.Load(), int64(51+i); got != want {
			t.Fatalf("after %d initiations (ops %d) the clock reads %d, want %d", i+1, r.ops.Load(), got, want)
		}
	}
}

// TestShardLayout: a shard spans whole cache lines with seenAt on the
// last one; a shard that straddles lines puts its neighbour's lock next
// to the seenAt its worker writes (measured about 8% slower on Min over
// Hypercube(14) with 2 workers).
func TestShardLayout(t *testing.T) {
	const shardBytes = 192
	var sh shard[int]
	if size := unsafe.Sizeof(sh); size != shardBytes {
		t.Fatalf("shard is %d bytes, want %d", size, shardBytes)
	}
	if off := unsafe.Offsetof(sh.seenAt); off != shardBytes-64 {
		t.Fatalf("seenAt at offset %d, want %d: it must start the last line", off, shardBytes-64)
	}
}

// TestSchedAudit: after the workers exit, a drained run must have left
// nothing undone, and runnable must count exactly the non-idle agents.
func TestSchedAudit(t *testing.T) {
	// One agent with one neighbour, idle, in a run that drained.
	base := func() *run[int] {
		r := &run[int]{
			state: []agentState{stIdle}, awaiting: []bool{false}, crashed: []bool{false},
			rings: []ring{{}}, nbrOff: []int32{0, 1},
		}
		r.drained.Store(true)
		return r
	}
	for _, c := range []struct {
		name      string
		mut       func(r *run[int])
		violation bool
	}{
		{"budget spent", func(r *run[int]) { r.budgetOut.Store(true) }, false},
		{"crashed", func(r *run[int]) { r.crashed[0] = true }, false},
		{"isolated", func(r *run[int]) { r.nbrOff[1] = 0 }, false},
		{"not drained", func(r *run[int]) { r.drained.Store(false) }, false},
		{"could still initiate", func(*run[int]) {}, true},
		{"awaiting a reply", func(r *run[int]) { r.budgetOut.Store(true); r.awaiting[0] = true }, true},
		{"undelivered message", func(r *run[int]) { r.budgetOut.Store(true); r.rings[0].tail = 1 }, true},
	} {
		r := base()
		c.mut(r)
		if got := r.audit(); (len(got) != 0) != c.violation {
			t.Errorf("%s: violations %v, want violation=%v", c.name, got, c.violation)
		}
	}
	r := base()
	r.runnable.Store(1)
	defer func() {
		if recover() == nil {
			t.Error("runnable = 1 with every agent idle did not panic")
		}
	}()
	r.audit()
}

// TestSchedFaultValidation: malformed fault specs fail the run before any
// agent starts.
func TestSchedFaultValidation(t *testing.T) {
	for _, f := range []dynamics.Faults{{LossP: 1}, {LossP: 1.5}, {LossP: -0.5}, {DelayMax: -time.Second}} {
		o := topts()
		o.Faults = &f
		if _, err := Run[int](problems.NewMin(), graph.Ring(4), []int{3, 1, 2, 4}, o); err == nil {
			t.Errorf("Faults%+v: expected an error", f)
		}
	}
}
