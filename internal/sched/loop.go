package sched

import (
	"math"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	ms "repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// ticks converts a wall-clock duration from the AIMD controller or the
// fault layer into virtual ticks at 1µs/tick (minimum 1): the controller
// keeps its calibrated shape, the scheduler keeps its virtual clock.
func ticks(d time.Duration) int64 {
	t := int64(d / time.Microsecond)
	if t < 1 {
		t = 1
	}
	return t
}

// worker drains shard w: due deferrals first, then the run queue, then a
// steal sweep, then a fast-forwarded deferral, then sleep. At Workers=1
// this order is the total event order of the run — a pure function of
// the seed — which is exactly the determinism pin the golden holds.
func (r *run[T]) worker(w int) {
	rng := engine.NewFastRand(r.opts.Seed)
	own := &r.shards[w]
	events := 0
	for {
		if r.stop.Load() {
			break
		}
		if r.sp.want.Load() {
			r.barrier()
			continue
		}
		r.maybeCheckQuiescence()
		if events%lagCheckEvery == 0 {
			now := r.ops.Load()
			own.seenAt.Store(now)
			r.lag.wakeIfWaiting()
			if r.lagging(w, now) {
				r.waitForLaggard(w, own)
				continue
			}
		}

		a, ok := r.next(own, w)
		if !ok {
			r.sleep(own)
			events = 0 // republish seenAt on the way back in
			continue
		}
		r.process(a, rng)
		events++
	}
	r.sp.mu.Lock()
	r.sp.exited++
	r.sp.cond.Broadcast()
	r.sp.mu.Unlock()
}

// lagCheckEvery is how many events a worker runs between publishing its
// seenAt and checking everyone else's: both touch lines other workers
// write (the op counter, their seenAt), so they are amortised rather than
// paid per event.
const lagCheckEvery = 8

// asleep is a worker's seenAt while it sleeps: it then holds no agent,
// no deferral and no lock, so it cannot stall anyone. A waker that
// clears sleeping also resets seenAt, so a woken worker that is slow to
// run counts as awake.
const asleep = math.MaxInt64

// lagging reports whether, at op count now, another awake worker has not
// come round its loop for more than maxLag initiations. Its seenAt is at
// most lagCheckEvery of its own events old, and one event is short, so that
// worker was descheduled — by the Go scheduler when workers outnumber
// GOMAXPROCS, or by the OS — while it may hold what the rest of the
// fleet needs: the agent of its current event, the deferrals only it
// pops, the quiescence check. Left alone, the others would spend the
// whole op budget gossiping around it. The caller waits instead of
// initiating (waitForLaggard), so initiations run at most maxLag (plus
// one check interval per worker) ahead of the slowest awake worker.
func (r *run[T]) lagging(w int, now int64) bool {
	for v := range r.shards {
		if v != w && now-r.shards[v].seenAt.Load() > r.maxLag {
			return true
		}
	}
	return false
}

// waitForLaggard parks worker w until no other awake worker lags, the
// run stops, or a safepoint is requested. Parking, not spinning, hands
// the CPU to a laggard whose thread the OS descheduled. A parked worker
// stays awake for everyone else's lag check — it still owns its heap —
// so after every wake it republishes seenAt, and wakes the others if
// that moved it. While every worker waits no initiation moves ops, so
// the republished values settle, and then nobody lags.
func (r *run[T]) waitForLaggard(w int, own *shard[T]) {
	g := &r.lag
	g.mu.Lock()
	g.waiters.Add(1)
	for !r.stop.Load() && !r.sp.want.Load() {
		now := r.ops.Load()
		if own.seenAt.Swap(now) != now {
			g.cond.Broadcast()
		}
		if !r.lagging(w, now) {
			break
		}
		g.cond.Wait()
	}
	g.waiters.Add(-1)
	g.mu.Unlock()
}

// next claims one runnable agent for worker w, or reports none. Every
// claim is a state transition under the claimed agent's home shard lock —
// one agent per steal, so a thief never moves scheduling state out from
// under its home lock.
func (r *run[T]) next(own *shard[T], w int) (int32, bool) {
	now := r.vnow.Load()
	own.mu.Lock()
	if e, ok := r.popDeferred(own, now); ok {
		own.mu.Unlock()
		return e.agent, true
	}
	if a, ok := r.popQueue(own); ok {
		own.mu.Unlock()
		return a, true
	}
	own.mu.Unlock()

	// Steal: a deterministic round-robin sweep starting one shard up.
	P := len(r.shards)
	for i := 1; i < P; i++ {
		v := &r.shards[(w+i)%P]
		v.mu.Lock()
		a, ok := r.popQueue(v)
		v.mu.Unlock()
		if ok {
			r.steals.Add(1)
			r.opts.Probe.Add(obs.CounterSchedSteals, 1)
			return a, true
		}
	}

	// Fast-forward: nothing is ready anywhere this worker may look, so
	// the virtual clock jumps to its earliest future deferral and that
	// deferral runs — deadlines shape interleaving, they never cost
	// wall-clock or liveness. Without the clock jump this would spin: a
	// system where every agent waits on a deadline has no initiations to
	// move time forward. Stale entries are dropped on the way and never
	// move the clock.
	own.mu.Lock()
	e, ok := r.popDeferred(own, math.MaxInt64)
	own.mu.Unlock()
	if !ok {
		return 0, false
	}
	r.advance(e.due)
	return e.agent, true
}

// popQueue claims the oldest agent on sh's run queue. Caller holds sh.mu.
//
//det:hotpath
func (r *run[T]) popQueue(sh *shard[T]) (int32, bool) {
	a, ok := sh.rqPop()
	if !ok {
		return 0, false
	}
	r.opts.Probe.Add(obs.CounterSchedDepthSum, int64(sh.rqLen))
	r.state[a], _ = transition(r.state[a], evPopQueue)
	return a, true
}

// popDeferred claims the agent of sh's earliest live deferral due at or
// before limit, dropping the stale entries it passes. Caller holds sh.mu.
//
//det:hotpath
func (r *run[T]) popDeferred(sh *shard[T], limit int64) (deferEntry, bool) {
	for len(sh.deferred) > 0 && sh.deferred[0].due <= limit {
		e := sh.heapPop()
		if e.gen != r.gen[e.agent] {
			continue
		}
		r.state[e.agent], _ = transition(r.state[e.agent], evPopHeap)
		return e, true
	}
	return deferEntry{}, false
}

// sleep blocks the worker until new work can exist for it. The re-check
// after publishing sleeping closes the lost-wakeup window: a waker that
// saw sleeping=true has already parked its token in the capacity-1
// channel, so the receive below cannot hang. Termination needs no check
// here — the finish that idles the last agent halts the run, and halt
// wakes every sleeper.
func (r *run[T]) sleep(own *shard[T]) {
	own.mu.Lock()
	if own.rqLen > 0 || len(own.deferred) > 0 {
		own.mu.Unlock()
		return
	}
	own.sleeping = true
	own.seenAt.Store(asleep)
	own.mu.Unlock()
	r.lag.wakeIfWaiting()

	if r.stop.Load() || r.sp.want.Load() {
		r.cancelSleep(own)
		return
	}
	r.sleepers.Add(1)
	r.opts.Probe.Add(obs.CounterSchedParks, 1)
	<-own.wake
	r.sleepers.Add(-1)
}

// cancelSleep retracts a published sleeping mark, consuming the wake
// token if a waker already sent it.
func (r *run[T]) cancelSleep(own *shard[T]) {
	own.mu.Lock()
	was := own.sleeping
	own.sleeping = false
	own.mu.Unlock()
	if !was {
		select {
		case <-own.wake:
		default:
		}
	}
}

// deliver pushes m into agent to's mailbox and makes to runnable. The
// push and the state transition share to's home shard critical section.
//
//det:hotpath
func (r *run[T]) deliver(to int32, m message[T]) {
	sh := r.home(to)
	sh.mu.Lock()
	pushMsg(&r.rings[to], sh.slab, m)
	r.enqueueLocked(sh, to)
}

// enqueueLocked applies a delivery to agent a: an idle or deferred agent
// joins its home run queue (a deferred one leaves a stale heap entry
// behind), a running one is marked pending. The caller holds sh.mu (a's
// home shard); enqueueLocked releases it.
//
//det:hotpath
func (r *run[T]) enqueueLocked(sh *shard[T], a int32) {
	s := r.state[a]
	next, d := transition(s, evDeliver)
	r.state[a] = next
	if d != 0 {
		r.runnable.Add(d)
	}
	if s == stDeferred {
		r.gen[a]++
	}
	if next != stQueued || s == stQueued {
		sh.mu.Unlock()
		return
	}
	sh.rqPush(a)
	r.opts.Probe.Add(obs.CounterSchedEnqueues, 1)
	r.unlockAndWake(sh)
}

// unlockAndWake releases sh.mu after a push onto sh and wakes the worker
// that should serve it: sh's own worker when it sleeps — only the owner
// fast-forwards its heap — else, when the run queue holds more than one
// agent, one sleeping thief.
//
//det:hotpath
func (r *run[T]) unlockAndWake(sh *shard[T]) {
	depth := sh.rqLen
	wake := sh.sleeping
	if wake {
		sh.sleeping = false
		sh.seenAt.Store(r.ops.Load())
	}
	sh.mu.Unlock()
	if wake {
		sh.signal()
	} else if depth > 1 && r.sleepers.Load() > 0 {
		r.wakeThief()
	}
}

// wakeThief wakes one sleeping worker so queued work on a busy shard is
// stolen instead of waiting for its owner to come around.
func (r *run[T]) wakeThief() {
	for s := range r.shards {
		if r.shards[s].wakeIfSleeping(r.ops.Load()) {
			return
		}
	}
}

// process runs one scheduling event for agent a: drain the mailbox, then
// initiate, complete a delayed send, or park/defer; finally settle the
// agent's scheduling state. The worker owns a's non-scheduling state for the
// whole call — ownership transferred through the queue pop.
func (r *run[T]) process(a int32, rng *engine.FastRand) {
	sh := r.home(a)
	out := evPark
	var due int64

	for {
		sh.mu.Lock()
		m, ok := popMsg(&r.rings[a], sh.slab)
		sh.mu.Unlock()
		if !ok {
			break
		}
		r.handle(a, m, rng)
	}

	switch {
	case r.crashed[a]:
		// Frozen: served busy above, initiates nothing, parks.
	case r.awaiting[a]:
		// Mid-exchange: the reply will re-enqueue us.
	case r.sendTo[a] >= 0:
		// A delayed request is pending; the agent stays receptive until
		// the send tick, then commits its CURRENT state.
		if now := r.vnow.Load(); now >= r.sendDue[a] {
			to := r.sendTo[a]
			r.sendTo[a] = -1
			r.awaiting[a] = true
			r.deliver(to, message[T]{from: a, kind: msgRequest, state: r.states[a]})
		} else {
			out, due = evDefer, r.sendDue[a]
		}
	case r.budgetOut.Load():
		// Budget drained: keep serving peers (above), initiate nothing.
	default:
		if now := r.vnow.Load(); r.actDue[a] > now {
			out, due = evDefer, r.actDue[a]
		} else {
			out, due = r.initiate(a, rng)
		}
	}

	r.finish(sh, a, out, due)
}

// finish applies the outcome of one processing event to agent a's state,
// pushes it where that state says, and halts a run whose last non-idle
// agent just went idle: nothing can ever happen again.
//
//det:hotpath
func (r *run[T]) finish(sh *shard[T], a int32, out schedEvent, due int64) {
	sh.mu.Lock()
	next, d := transition(r.state[a], out)
	r.state[a] = next
	switch next {
	case stQueued:
		sh.rqPush(a)
	case stDeferred:
		sh.heapPush(deferEntry{due: due, agent: a, gen: r.gen[a]})
	default:
		sh.mu.Unlock()
		if r.runnable.Add(d) == 0 {
			r.drained.Store(true)
			r.halt()
		}
		return
	}
	r.unlockAndWake(sh)
}

// handle serves one mailbox message for agent a.
func (r *run[T]) handle(a int32, m message[T], rng *engine.FastRand) {
	switch m.kind {
	case msgRequest:
		if r.crashed[a] || r.awaiting[a] {
			// The busy guard: a crashed agent is frozen, an awaiting
			// agent admits no second exchange while its half is in
			// flight — both reject, so two initiators aimed at each
			// other can never deadlock.
			r.deliver(m.from, message[T]{from: a, kind: msgReplyBusy})
			return
		}
		// The pair transition, atomic at the partner: adopt our half,
		// return the initiator's.
		r.reseed(a, rng)
		na, nb := r.p.PairStep(m.state, r.states[a], rng.Rand)
		if r.cmp(r.states[a], nb) != 0 {
			r.states[a] = nb
			r.post(a, nb)
		}
		r.deliver(m.from, message[T]{from: a, kind: msgReplyOK, state: na})
	case msgReplyOK:
		r.awaiting[a] = false
		r.backoff[a].OnSuccess()
		r.opts.Probe.Add(obs.CounterExchDeliver, 1)
		if r.cmp(r.states[a], m.state) != 0 {
			r.states[a] = m.state
			r.post(a, m.state)
			r.properSteps.Add(1)
		}
		r.settleCrash(a)
	case msgReplyBusy:
		r.awaiting[a] = false
		r.rejections.Add(1)
		r.opts.Probe.Add(obs.CounterExchBusy, 1)
		// Admission control: the AIMD window (runtime.AIMD) becomes a
		// virtual-tick deadline before which this agent may serve but
		// not re-initiate.
		window := r.backoff[a].OnRejected()
		r.reseed(a, rng)
		jitter := 1 + rng.Int63n(ticks(window))
		r.actDue[a] = r.vnow.Load() + jitter
		r.opts.Probe.Add(obs.CounterSchedAdmits, 1)
		r.opts.Probe.Add(obs.CounterExchBackoffs, 1)
		r.opts.Probe.Add(obs.CounterExchBackoffNs, jitter*int64(time.Microsecond))
		r.settleCrash(a)
	}
}

// settleCrash applies a crash that a dynamics epoch deferred because the
// agent's exchange half was in flight: the pair transition has now
// completed, so freezing is safe — conservation is never torn by a fault.
func (r *run[T]) settleCrash(a int32) {
	if r.pendingCrash[a] {
		r.pendingCrash[a] = false
		r.crashed[a] = true
		r.frozenVals[a] = r.states[a]
	}
}

// reseed rebases the worker's stream for agent a's next drawing event:
// SubSeed(AgentSeed(seed, a), eventIndex). Identity-keyed — which worker
// executes the event never matters — and O(1) per event, so per-agent
// randomness costs a counter, not a generator.
//
//det:hotpath
func (r *run[T]) reseed(a int32, rng *engine.FastRand) {
	rng.Reseed(engine.SubSeed(r.seedBase[a], int(r.eventSeq[a])))
	r.eventSeq[a]++
}

// initiate spends one op on a push-pull exchange attempt by agent a.
func (r *run[T]) initiate(a int32, rng *engine.FastRand) (schedEvent, int64) {
	lo, hi := r.nbrOff[a], r.nbrOff[a+1]
	if lo == hi {
		return evPark, 0 // isolated agent: nothing to gossip with, ever
	}
	n := r.ops.Add(1)
	if n > int64(r.opts.MaxOps) {
		r.ops.Add(-1)
		r.budgetOut.Store(true)
		return evPark, 0
	}
	// One tick per initiation, on top of any fast-forward: a clock that
	// only followed ops would stop once a fast-forward put it ahead, and
	// the deferrals due just after it would wait for a worker idle
	// enough to fast-forward while busy agents spend the budget.
	r.vnow.Add(1)
	if r.ap != nil && n >= r.nextEpochAt.Load() {
		// Crossing an epoch boundary requests a safepoint; whichever
		// worker reaches the barrier first conducts it.
		r.sp.want.CompareAndSwap(false, true)
	}
	r.opts.Probe.Add(obs.CounterExchInitiate, 1)

	r.reseed(a, rng)
	pick := r.nbrs[int(lo)+rng.Intn(int(hi-lo))]
	if !r.es.EdgeIsUp(int(pick.edge)) {
		return evRequeue, 0 // dynamics masked the link this epoch
	}
	if p := r.opts.LinkUpProbability; p < 1 && rng.Float64() >= p {
		return evRequeue, 0 // link down for this attempt
	}
	if f := r.opts.Faults; f != nil {
		if f.LossP > 0 && rng.Float64() < f.LossP {
			// Lost in transit: the initiation is spent, nothing happens.
			r.lost.Add(1)
			r.opts.Probe.Add(obs.CounterExchLost, 1)
			return evRequeue, 0
		}
		if f.DelayMax > 0 {
			// In-flight delay: commit to the send at a future tick; the
			// agent serves its mailbox in the meantime.
			d := 1 + rng.Int63n(ticks(f.DelayMax))
			due := r.vnow.Load() + d
			r.sendTo[a] = pick.agent
			r.sendDue[a] = due
			return evDefer, due
		}
	}
	r.awaiting[a] = true
	r.deliver(pick.agent, message[T]{from: a, kind: msgRequest, state: r.states[a]})
	return evPark, 0
}

// maybeCheckQuiescence runs the rate-limited convergence check: only
// when some agent adopted since the last check AND at least checkEvery
// initiations have passed since it. Checks stay event-driven and
// op-bounded — never more than one per adoption, so the check count never
// grows with wall-clock time — but a 10⁵-agent run does not pay an
// O(N log N) board snapshot per event.
func (r *run[T]) maybeCheckQuiescence() {
	ad := r.adoptions.Load()
	if ad == r.checkedAdopt.Load() {
		return
	}
	if r.ops.Load()-r.lastCheckOps.Load() < r.checkEvery {
		return
	}
	if !r.checkMu.TryLock() {
		return
	}
	defer r.checkMu.Unlock()
	ad = r.adoptions.Load()
	if ad == r.checkedAdopt.Load() {
		return
	}
	r.checkedAdopt.Store(ad)
	r.lastCheckOps.Store(r.ops.Load())
	r.checks.Add(1)

	r.viewBuf = r.viewBuf[:0]
	for i := range r.board {
		sl := &r.board[i]
		sl.mu.Lock()
		r.viewBuf = append(r.viewBuf, sl.v)
		sl.mu.Unlock()
	}
	slices.SortFunc(r.viewBuf, r.cmp)
	if r.conv.Reached(ms.View(r.cmp, r.viewBuf)) {
		if r.ap != nil && r.ap.PendingJoins() {
			return // joins outstanding: the target will still move
		}
		r.halt()
	}
}

// barrier parks the calling worker for a dynamics safepoint. The first
// worker to arrive conducts: it waits for every other live worker to
// park or exit, applies every epoch whose boundary has passed, and
// releases the fleet.
func (r *run[T]) barrier() {
	sp := &r.sp
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !sp.want.Load() {
		return
	}
	if sp.conducting {
		sp.parked++
		sp.cond.Broadcast()
		for sp.want.Load() && !r.stop.Load() {
			sp.cond.Wait()
		}
		sp.parked--
		return
	}
	sp.conducting = true
	// Wake sleepers and lag waiters so they come park; a worker about to
	// sleep re-checks sp.want after publishing sleeping, and a lag waiter
	// re-checks it under the gate lock, so none can miss this.
	for s := range r.shards {
		r.shards[s].wakeIfSleeping(r.ops.Load())
	}
	r.lag.broadcast()
	for sp.parked+sp.exited < len(r.shards)-1 && !r.stop.Load() {
		sp.cond.Wait()
	}
	if !r.stop.Load() {
		now := r.ops.Load()
		for r.nextEpochAt.Load() <= now {
			r.epoch++
			r.applyEpoch(r.epoch)
			r.nextEpochAt.Add(int64(r.opts.OpsPerEpoch))
		}
	}
	sp.conducting = false
	sp.want.Store(false)
	sp.cond.Broadcast()
}

// applyEpoch applies dynamics epoch e while every other worker is parked
// (or, for epoch 0, before any has started): growth first, then the
// epoch's events and mask overlay — the sim round protocol with
// initiations as the clock.
func (r *run[T]) applyEpoch(e int) {
	if gr, ok := r.ap.GrowthFor(e); ok {
		r.applyGrowth(gr)
	}
	r.ap.EndRound()
	r.es = r.ap.BeginRound(e, env.State{})
	for _, ag := range r.ap.JustCrashed() {
		a := int32(ag)
		if r.awaiting[a] {
			// An exchange half is in flight: tearing it would break
			// conservation. Freeze after the reply lands (settleCrash).
			r.pendingCrash[a] = true
			continue
		}
		if r.sendTo[a] >= 0 {
			r.sendTo[a] = -1 // the delayed request dies with the sender
		}
		r.crashed[a] = true
		r.frozenVals[a] = r.states[a]
	}
	reset := false
	for _, ag := range r.ap.JustWoken() {
		a := int32(ag)
		if r.pendingCrash[a] {
			r.pendingCrash[a] = false // crash and wake cancelled in flight
			continue
		}
		r.crashed[a] = false
		if r.ap.Amnesiac() && r.cmp(r.states[a], r.initVals[a]) != 0 {
			// Amnesiac rejoin: re-enter with the initial state. A
			// sanctioned discontinuity — the variant rebases below; the
			// conservation law deliberately does not (§3.4 decides
			// which problems survive it, and the monitor reports
			// exactly that at quiescence).
			r.states[a] = r.initVals[a]
			r.post(a, r.states[a])
			reset = true
		}
		sh := r.home(a)
		sh.mu.Lock()
		r.enqueueLocked(sh, a)
	}
	if reset {
		r.mon.RebaseVariant(ms.New(r.cmp, r.states...))
	}
}

// applyGrowth extends every run structure for joiners arriving at a
// safepoint: states and board, the scheduling arrays, the last shard's
// block (the engine.Shards append rule), CSR and mailboxes (degrees may
// change anywhere), and the shared monitor/convergence targets — the sim
// applyGrowth protocol on the sched runtime.
func (r *run[T]) applyGrowth(gr graph.Growth) {
	n0 := len(r.states)
	joined := r.initVals[gr.FirstAgent : gr.FirstAgent+gr.NewAgents]
	r.states = append(r.states, joined...)
	n := len(r.states)
	for a := n0; a < n; a++ {
		r.frozenVals = append(r.frozenVals, r.states[a])
		r.state = append(r.state, stIdle)
		r.gen = append(r.gen, 0)
		r.seedBase = append(r.seedBase, engine.AgentSeed(r.opts.Seed, a))
		r.eventSeq = append(r.eventSeq, 0)
		r.awaiting = append(r.awaiting, false)
		r.crashed = append(r.crashed, false)
		r.pendingCrash = append(r.pendingCrash, false)
		r.sendTo = append(r.sendTo, -1)
		r.sendDue = append(r.sendDue, 0)
		r.actDue = append(r.actDue, 0)
		r.backoff = append(r.backoff, runtime.AIMD{})
	}
	board := make([]boardSlot[T], n)
	for i := 0; i < n0; i++ {
		board[i].v = r.board[i].v
	}
	for a := n0; a < n; a++ {
		board[a].v = r.states[a]
	}
	r.board = board
	r.viewBuf = slices.Grow(r.viewBuf[:0], n)

	last := &r.shards[len(r.shards)-1]
	last.hi = n
	r.buildCSR()
	r.buildMailboxes()

	// The run now answers for the final population: the target absorbs
	// the joiners (exact for super-idempotent f, §3.4), convergence
	// restarts against it, and the variant baseline restarts from the
	// grown state — fresh input may legitimately raise h.
	r.mon.AdmitJoin(joined)
	r.conv.Retarget(r.mon.Target())
	r.mon.RebaseVariant(ms.New(r.cmp, r.states...))

	for a := n0; a < n; a++ {
		last.mu.Lock()
		r.enqueueLocked(last, int32(a))
	}
}
