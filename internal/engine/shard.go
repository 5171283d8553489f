package engine

import (
	"repro/internal/core"
	ms "repro/internal/multiset"
	"repro/internal/obs"
)

// Shards is the sharded global-state snapshot shared by the engines: the
// positional agent state array is split into P contiguous blocks, each
// owning its own multiset.Tracker, and the global state multiset is
// reduced from the per-shard views by a P-way merge into a reusable
// buffer.
//
// The paper's conservation law is exactly the license for this layout:
// S_{B∪C} = S_B ∪ S_C holds for ANY partition of the agent multiset
// (§2.1), so maintaining shard multisets and merging them on demand is
// observationally identical to maintaining one global multiset — which
// the engine-equivalence golden tests pin bit for bit.
//
// The scalability win is twofold. Deltas are STAGED per shard over a
// whole round, keyed by the agent's index within its block, and each
// shard's tracker is repaired once per round — O(k log k) to sort the k
// new values plus one O(n/P) merge pass per shard (the removed values are
// found by key, never searched for) instead of one O(n) pass per group
// step, which is what makes 10⁶-agent rounds affordable. And the P
// repairs are independent, so Flush fans them out across the worker
// pool.
//
// Shards is not safe for concurrent use except where documented: Flush
// parallelizes internally over disjoint shards.
type Shards[T any] struct {
	cmp       ms.Cmp[T]
	blockSize int
	// lastLo is the first agent of the last shard: min((P-1)·blockSize,
	// founding population). Every agent at or beyond it — joiners
	// included — belongs to the last shard.
	lastLo   int
	trackers []*ms.Tracker[T]
	// Staged per-shard deltas for the current round (tracker keys and
	// parallel old/new values), reused across rounds.
	keys       [][]int
	olds, news [][]T
	// views is reusable scratch for handing the shard views to the merger.
	views  []ms.Multiset[T]
	merger *ms.Merger[T]
	probe  *obs.Probe
	// gen counts the mutations of the tracked multisets (see Gen).
	gen uint64
}

// SetProbe attaches (or, with nil, detaches) an observability probe
// recording flush/merge activity: flushes, staged deltas drained, and
// P-way view merges. Per-run configuration on a possibly warm Shards;
// survives Reset. Probes observe, they never change what is flushed.
func (s *Shards[T]) SetProbe(probe *obs.Probe) { s.probe = probe }

// NewShards builds a sharded snapshot of the given positional states
// split into p contiguous blocks (p is clamped to [1, len(states)]).
func NewShards[T any](cmp ms.Cmp[T], states []T, p int) *Shards[T] {
	n := len(states)
	if p < 1 {
		p = 1
	}
	if p > n && n > 0 {
		p = n
	}
	bs := (n + p - 1) / p
	if bs < 1 {
		bs = 1
	}
	s := &Shards[T]{
		cmp:       cmp,
		blockSize: bs,
		lastLo:    min((p-1)*bs, n),
		trackers:  make([]*ms.Tracker[T], p),
		keys:      make([][]int, p),
		olds:      make([][]T, p),
		news:      make([][]T, p),
		views:     make([]ms.Multiset[T], p),
		merger:    ms.NewMerger(cmp),
	}
	for i := 0; i < p; i++ {
		lo, hi := i*bs, (i+1)*bs
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		s.trackers[i] = ms.NewTracker(cmp, states[lo:hi])
	}
	return s
}

// Reset rebinds the sharded snapshot to a fresh population split into p
// blocks, reusing the per-shard trackers, staging buffers, and merger
// whenever the shard count is unchanged; a different p (or a first use)
// rebuilds the tracker array but still reuses the merger and staging
// slices where possible. The resulting state is identical to
// NewShards(cmp, states, p) — the warm-engine contract for sweeps whose
// cells share a layout.
func (s *Shards[T]) Reset(cmp ms.Cmp[T], states []T, p int) {
	n := len(states)
	if p < 1 {
		p = 1
	}
	if p > n && n > 0 {
		p = n
	}
	bs := (n + p - 1) / p
	if bs < 1 {
		bs = 1
	}
	s.gen++
	s.cmp = cmp
	s.blockSize = bs
	s.lastLo = min((p-1)*bs, n)
	if len(s.trackers) != p {
		s.trackers = make([]*ms.Tracker[T], p)
		s.keys = make([][]int, p)
		s.olds = make([][]T, p)
		s.news = make([][]T, p)
		s.views = make([]ms.Multiset[T], p)
	}
	if s.merger == nil {
		s.merger = ms.NewMerger(cmp)
	} else {
		s.merger.Reset(cmp)
	}
	for i := 0; i < p; i++ {
		lo, hi := i*bs, (i+1)*bs
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		if s.trackers[i] == nil {
			s.trackers[i] = ms.NewTracker(cmp, states[lo:hi])
		} else {
			s.trackers[i].Reset(cmp, states[lo:hi])
		}
		s.keys[i] = s.keys[i][:0]
		s.olds[i] = s.olds[i][:0]
		s.news[i] = s.news[i][:0]
	}
}

// P returns the shard count.
func (s *Shards[T]) P() int { return len(s.trackers) }

// Owner returns the shard owning the given agent index. Agents appended
// by population growth clamp to the last shard — the same
// grow-the-last-block rule graph.EdgePartition.Block uses, so state
// sharding and edge blocking never disagree about an agent's home.
func (s *Shards[T]) Owner(agent int) int {
	sh, _ := s.locate(agent)
	return sh
}

// locate returns the shard owning the agent and the agent's key in that
// shard's tracker: its offset from the shard's first agent. Agents at or
// beyond lastLo belong to the last shard, which Append extends, so a
// joiner's key is exactly the key its Append assigned — even when the
// founding population left trailing shards empty.
func (s *Shards[T]) locate(agent int) (sh, key int) {
	if agent >= s.lastLo {
		return len(s.trackers) - 1, agent - s.lastLo
	}
	sh = agent / s.blockSize
	return sh, agent - sh*s.blockSize
}

// Append admits joining agents: their states are appended to the LAST
// shard's tracker, matching Owner's clamp for out-of-range indices. The
// shard layout (P, blockSize) is untouched — growth never rebalances
// mid-run, so per-shard draws and merge order are unchanged for every
// existing agent; rebalancing happens only when an explicit epoch calls
// Reset with the full population.
func (s *Shards[T]) Append(vals []T) {
	if len(vals) == 0 {
		return
	}
	s.gen++
	s.trackers[len(s.trackers)-1].Append(vals)
}

// Gen returns the snapshot's generation: a counter bumped by every Reset,
// every non-empty Append and every Flush that had deltas staged. Equal
// readings bracket no change to any shard, so View (and every reduction
// of it) is unchanged between them — multiset.Tracker.Gen's contract
// lifted to the sharded layout.
func (s *Shards[T]) Gen() uint64 { return s.gen }

// Stage records that the given agent's state changed old → new this
// round. The delta is routed to the owning shard under the agent's key
// there and applied at the next Flush; each agent may be staged at most
// once per flush (groups are disjoint), and old must be the value the
// shard currently tracks for the agent — Flush panics otherwise.
func (s *Shards[T]) Stage(agent int, oldV, newV T) {
	sh, key := s.locate(agent)
	s.keys[sh] = append(s.keys[sh], key)
	s.olds[sh] = append(s.olds[sh], oldV)
	s.news[sh] = append(s.news[sh], newV)
}

// Flush repairs every shard's tracker from its staged deltas and clears
// the staging buffers. The per-shard repairs are independent (disjoint
// trackers, disjoint staging), so they fan out across the pool; results
// do not depend on scheduling. With nothing staged — a round of stutter
// steps — it returns without waking the pool or bumping Gen.
func (s *Shards[T]) Flush(pool *Pool) {
	staged := 0
	for i := range s.olds {
		staged += len(s.olds[i])
	}
	if s.probe != nil {
		s.probe.Add(obs.CounterShardFlushes, 1)
		s.probe.Add(obs.CounterStagedDeltas, int64(staged))
	}
	if staged == 0 {
		return
	}
	s.gen++
	pool.DoAll(len(s.trackers), func(_, i int) {
		s.trackers[i].Repair(s.keys[i], s.olds[i], s.news[i])
		s.keys[i] = s.keys[i][:0]
		s.olds[i] = s.olds[i][:0]
		s.news[i] = s.news[i][:0]
	})
}

// ShardView returns shard i's current multiset as a zero-copy view,
// invalidated by the next Flush.
func (s *Shards[T]) ShardView(i int) ms.Multiset[T] { return s.trackers[i].View() }

// View merges the shard views into the global state multiset — the
// P-way ∪ of the paper, into a buffer reused across rounds. The view is
// invalidated by the next View or Flush call.
func (s *Shards[T]) View() ms.Multiset[T] {
	if s.probe != nil {
		s.probe.Add(obs.CounterShardMerges, 1)
	}
	for i, t := range s.trackers {
		s.views[i] = t.View()
	}
	return s.merger.Union(s.views...)
}

// Len reports the tracked population size across all shards.
func (s *Shards[T]) Len() int {
	n := 0
	for _, t := range s.trackers {
		n += t.Len()
	}
	return n
}

// ObserveRoundSharded is the shard-aware reduction of ObserveRound: the
// conservation check evaluates f through per-shard partial images
// f(S_i), computed concurrently on the pool into per-shard reusable
// buffers, and reduces them at round end as f(f(S_1) ∪ … ∪ f(S_P)) —
// equal to f(S) exactly when f is super-idempotent (§3.4), which is the
// structural condition every problem this repository ships already
// satisfies (and the engine-equivalence golden tests verify the verdicts
// match the unsharded monitor bit for bit). The partial-image path is
// taken only when f carries the core.SuperIdempotentFunction marker; an
// unmarked f — a user-defined problem whose f may be merely idempotent,
// the §4.3/§4.5 negative examples — falls back to evaluating f on the
// merged global snapshot, so monitor verdicts never depend on the state
// layout. The variant h and the returned value are computed on the
// merged global view, exactly as in ObserveRound.
//
// global must be the current sh.View(); it is passed in so engines that
// already merged this round's snapshot (for convergence detection) do
// not pay for a second merge.
func (m *Monitor[T]) ObserveRoundSharded(round int, global ms.Multiset[T], sh *Shards[T], pool *Pool) float64 {
	if !core.IsSuperIdempotent(m.f) {
		return m.ObserveRound(round, global)
	}
	p := sh.P()
	if cap(m.partials) < p {
		m.partials = make([]ms.Multiset[T], p)
		m.partialBufs = make([][]T, p)
	}
	partials := m.partials[:p]
	pool.DoAll(p, func(_, i int) {
		partials[i], m.partialBufs[i] = core.ApplyInto(m.f, m.partialBufs[i], sh.ShardView(i))
	})
	var fx ms.Multiset[T]
	if p == 1 {
		// One shard: f(S_1) IS f(S); skip the (idempotent) outer apply.
		fx = partials[0]
	} else {
		if m.partialMrg == nil {
			m.partialMrg = ms.NewMerger(global.Cmp())
		}
		merged := m.partialMrg.Union(partials...)
		fx, m.fBuf = core.ApplyInto(m.f, m.fBuf, merged)
	}
	return m.judge(round, fx, global)
}
