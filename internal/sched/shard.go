package sched

import (
	"sync"
	"sync/atomic"
)

// agentState is an agent's scheduling state, protected by the agent's
// HOME shard lock. An agent's home shard never changes (joiners home on
// the last shard, the engine.Shards append convention), so there is
// exactly one lock per agent's scheduling state and stealing cannot race
// it: a thief locks the victim shard — the home of every agent in the
// victim's queue — for the pop, and ownership of the agent's
// non-scheduling state (value, stream epoch, backoff controller)
// transfers through that critical section.
//
// An agent is in exactly one of four states — idle, queued, deferred,
// running — so exactly one worker can claim it. transition is the whole
// machine ("—" panics; runnable counts the agents that are not idle and
// changes only on the idle ↔ non-idle edges):
//
//	state      deliver           pop queue  pop heap  park       requeue  defer
//	idle       queued (+1)       —          —         —          —        —
//	queued     queued            running    —         —          —        —
//	deferred   queued, gen++     —          running   —          —        —
//	running    running+pending   —          —         idle (−1)  queued   deferred
//	+pending   running+pending   —          —         queued     queued   queued
//
// A delivery to a deferred agent leaves its heap entry in place but bumps
// the agent's generation, so the entry is recognised as stale and dropped
// when popped instead of dispatching the agent a second time. A message
// that arrives mid-run sets the pending bit, and the finishing worker
// requeues the agent whatever it asked for, so the message is served.
type agentState uint8

const (
	stIdle agentState = iota
	stQueued
	stDeferred
	stRunning
	// stPending is set on stRunning when a message arrives mid-run.
	stPending agentState = 1 << 2
)

// schedEvent is one input to the agent state machine.
type schedEvent uint8

const (
	// evDeliver: a message or a safepoint wake arrives for the agent.
	evDeliver schedEvent = iota
	// evPopQueue: a worker pops the agent off its home run queue.
	evPopQueue
	// evPopHeap: a worker pops the agent's live deferred-heap entry.
	evPopHeap
	// evPark: the agent finished and waits for a delivery (a reply, a
	// request, a wake); nothing re-runs it until one arrives.
	evPark
	// evRequeue: the agent finished and goes straight back on its run
	// queue.
	evRequeue
	// evDefer: the agent finished and waits on its home deferred heap
	// for a virtual deadline (admission control or a delayed send).
	evDefer
)

// transition is the agent state machine: the state after event ev in
// state s, and the change to runnable. An event a correct scheduler
// cannot produce in s — popping an agent that is not queued, finishing
// one that is not running — is an ownership breach and panics, like
// mailbox overflow.
//
//det:hotpath
func transition(s agentState, ev schedEvent) (agentState, int64) {
	switch ev {
	case evDeliver:
		switch s {
		case stIdle:
			return stQueued, 1
		case stQueued, stDeferred:
			return stQueued, 0
		default:
			return s | stPending, 0
		}
	case evPopQueue:
		if s != stQueued {
			panic("sched: run-queue pop of an agent that is not queued (double dispatch)")
		}
		return stRunning, 0
	case evPopHeap:
		if s != stDeferred {
			panic("sched: live heap entry for an agent that is not deferred (double dispatch)")
		}
		return stRunning, 0
	}
	if s&^stPending != stRunning {
		panic("sched: finish of an agent that is not running")
	}
	switch {
	case s&stPending != 0 || ev == evRequeue:
		return stQueued, 0
	case ev == evDefer:
		return stDeferred, 0
	default:
		return stIdle, -1
	}
}

// deferEntry is one admission-control deferral: agent may not act before
// virtual time due (the global initiation counter). Ordered by (due,
// agent) so the single-worker drain order is a pure function of the seed.
// gen is the agent's generation when the entry was pushed; a delivery to
// a deferred agent bumps the generation, so an entry whose gen no longer
// matches is stale and is discarded when popped.
type deferEntry struct {
	due   int64
	agent int32
	gen   uint32
}

// shard owns a contiguous agent block [lo, hi): their mailboxes (one slab,
// one ring each), their run-queue membership, and their deferred heap. One
// worker goroutine drains it; idle workers steal from other shards'
// queues.
type shard[T any] struct {
	mu sync.Mutex

	lo, hi int // agent block (hi grows when joiners home here)

	// runq is a FIFO ring deque of agent ids (head/tail indices, grow on
	// wrap when full). Only agents homed on this shard appear in it.
	runq   []int32
	rqHead int
	rqLen  int
	// deferred is a binary min-heap ordered by (due, agent).
	deferred []deferEntry

	// slab backs the mailbox rings of every agent homed here.
	slab []message[T]

	// sleeping marks the shard's worker as blocked on wake; set under mu,
	// cleared by the waker before the (capacity-1) send.
	sleeping bool
	wake     chan struct{}

	// seenAt is the op count when the worker last came round its loop
	// (published every lagCheckEvery events), or asleep; other workers
	// read it to bound how far initiations run ahead of a descheduled
	// worker (see lagging). It fills a 64-byte line of its own after the
	// 128 bytes above, so publishing it never contends with this shard's
	// or the next shard's lock (TestShardLayout pins the 192 bytes).
	seenAt atomic.Int64
	_      [56]byte
}

// rqPush appends a to the run queue. Caller holds mu.
//
//det:hotpath
func (s *shard[T]) rqPush(a int32) {
	if s.rqLen == len(s.runq) {
		s.rqGrow()
	}
	s.runq[(s.rqHead+s.rqLen)&(len(s.runq)-1)] = a
	s.rqLen++
}

// rqPop removes the oldest queued agent; the bool is false when empty.
// Caller holds mu.
//
//det:hotpath
func (s *shard[T]) rqPop() (int32, bool) {
	if s.rqLen == 0 {
		return 0, false
	}
	a := s.runq[s.rqHead]
	s.rqHead = (s.rqHead + 1) & (len(s.runq) - 1)
	s.rqLen--
	return a, true
}

// rqGrow doubles the queue storage (setup-rare: the queue is preallocated
// to the shard's block size and an agent appears at most once).
func (s *shard[T]) rqGrow() {
	old := s.runq
	n := len(old) * 2
	if n == 0 {
		n = 8
	}
	fresh := make([]int32, n)
	for i := 0; i < s.rqLen; i++ {
		fresh[i] = old[(s.rqHead+i)&(len(old)-1)]
	}
	s.runq = fresh
	s.rqHead = 0
}

// heapPush inserts e into the deferred heap. Caller holds mu.
//
//det:hotpath
func (s *shard[T]) heapPush(e deferEntry) {
	h := append(s.deferred, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !deferLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.deferred = h
}

// heapPop removes and returns the earliest deferral of a non-empty heap.
// Caller holds mu.
//
//det:hotpath
func (s *shard[T]) heapPop() deferEntry {
	h := s.deferred
	n := len(h)
	top := h[0]
	n--
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && deferLess(h[l], h[m]) {
			m = l
		}
		if r < n && deferLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.deferred = h
	return top
}

// wakeIfSleeping wakes the shard's worker if it is asleep, reporting
// whether it was; the woken worker counts as seen at op now.
func (s *shard[T]) wakeIfSleeping(now int64) bool {
	s.mu.Lock()
	wake := s.sleeping
	if wake {
		s.sleeping = false
		s.seenAt.Store(now)
	}
	s.mu.Unlock()
	if wake {
		s.signal()
	}
	return wake
}

// signal hands the shard's worker its wake token. The caller cleared
// sleeping under mu; the capacity-1 channel never blocks the sender.
//
//det:hotpath
func (s *shard[T]) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

//det:hotpath
func deferLess(a, b deferEntry) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.agent < b.agent
}
