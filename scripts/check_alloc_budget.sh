#!/usr/bin/env bash
# Hard allocation budgets for the engine hot paths, enforced in CI.
#
# BenchmarkSimComponentRing64 pins the round-based engine's zero-alloc
# round loop. Its allocs/op is one GroupStep copy per executed group step
# (the Problem API returns a fresh after-state so callers can never alias
# internal scratch) plus one-time setup; the budget of 1600 sits ~15%
# above the ~1374 the fixed seed produces after the PR 3 re-baseline (the
# sparse-churn environment changed the fixed-seed trajectory, not the
# per-step cost). BenchmarkSimPairwiseSharded4k pins the sharded pairwise
# round: the partitioned matcher's buffers are engine-owned and reused
# and PairStep is allocation-free, so a 4096-agent run sits near 710
# allocs/op, almost all setup — a regression to even one allocation per
# matched pair would add ~65k and fail loudly. BenchmarkAsyncRuntimeMin
# pins one small run of the asynchronous runtime (the sched-backed
# SimulateAsync, min on Ring(16)) set-up included: ~68 allocs/op, all
# per-run set-up, since an exchange allocates nothing. Its budget of 1200
# was set for the goroutine-per-agent runtime it used to measure and is
# kept, so a regression to O(exchanges) allocation still fails loudly.
# BenchmarkSweepGrid pins the
# scenario-grid runner's warm-engine contract: one persistent Runner
# executes a 24-cell pairwise grid per op, so steady-state cells pay only
# per-run bookkeeping (~40 allocs/cell — Result, probe, env masks,
# final-state copy; ~978 allocs/op measured after the bitset-mask
# migration, budget 1200, far below the several-thousand a grid whose
# cells re-paid engine set-up — tracker, matcher, pool, seeder source —
# would cost).
#
# BenchmarkSimWithDynamics is BenchmarkSimComponentRing64 with an EMPTY
# dynamics schedule attached and shares its 1600 budget: the dynamics
# hook (per-round Begin/EndRound + frozen check) must add ~0 allocs/round
# — the fixed seed measures ~1384 vs ~1377 plain, the difference being
# one-time applier setup. A regression that allocates per round (mask
# copies, per-event garbage) multiplies the number and fails loudly.
#
# BenchmarkSimPairwiseDelta1e5 pins the O(changes) steady-state round
# path: 64 post-warmup pairwise rounds at N = 10⁵ on a warm sweep worker
# (availability 0.999, so ~0.1% of edges flip per round and the
# usable-edge delta index absorbs them incrementally). The fixed seed
# measures ~256 allocs/op — exclusively per-run bookkeeping (Result,
# probe, environment, initial/final state copies); the 64 delta-indexed
# rounds themselves are allocation-free. The budget of 400 sits ~55%
# above that: a regression that allocates even once per round adds 64
# and fails, and one that re-pays any O(N) or O(E) buffer per round
# blows through it by orders of magnitude.
#
# BenchmarkJoinSplice pins the growable-population attachment path: a
# warm worker runs a Ring(4096) pairwise cell that splices 8 agents in
# at round 4 (32 fixed rounds per op). Each op pays per-run bookkeeping
# plus the join machinery — the clone of the pristine grid graph, the
# ring splice, the extended cached partition, matcher/mask/tracker
# growth, and the joiners' identity-keyed seeder substreams — all of
# which must be O(joined subgraph + changed edges). The fixed seed
# measures ~267 allocs/op; the budget of 400 sits ~50% above, so a
# regression that allocates per agent (4096 would blow through it) or
# per round after the splice fails loudly.
#
# BenchmarkSimRoundProbed is the same warm pairwise delta cell at
# N = 10⁵ (32 rounds/op) with an observability probe ATTACHED, and it
# shares the 400 budget: the probe's hot path (BeginRound/Begin/End/Add
# and the counter increments inside the pool, shards, and round loop)
# must be allocation-free, so probes-on allocs/op equals the unprobed
# per-run bookkeeping (~165 measured — fewer rounds than Delta1e5's 64,
# same fixed-cost set). A regression that allocates per phase sample
# adds hundreds per op (32 rounds × 7+ phase brackets) and fails loudly.
#
# BenchmarkSimPairwiseQuiescent1e5 pins the quiescent round: pairwise
# Min started at consensus on Ring(100_000), 4 state shards, 64 rounds
# per op on a warm scratch. No step changes anything, so nothing is
# staged or flushed and the monitor re-issues its cached verdict. The
# fixed seed measures 99 allocs/op at any GOMAXPROCS — per-run
# bookkeeping only (Result, probe, environment, target, the round-0
# observation, the final-state copy). The budget of 140 sits ~40% above
# that and below 99 + 64, so a regression that allocates even once per
# round fails loudly.
#
# BenchmarkSimPairwiseAverageWrites1e5 is the write-heavy twin: pairwise
# Average from random values on the same ring, 4 state shards, 16 rounds
# per op on a warm scratch. Nearly every matched pair writes, so every
# round stages ~5*10^4 keyed deltas, repairs every shard's tracker (sort
# of the new values, galloping placement, merge pass) and recomputes the
# monitor verdict. The fixed seed measures 127-128 allocs/op at
# GOMAXPROCS 1, 2 and 4 — per-run bookkeeping only. The budget of 140 sits
# below 127 + 16, so a repair or monitor that re-pays a scratch buffer
# even once per round fails loudly.
#
# BenchmarkSchedExchange1e4 pins the sharded actor scheduler's
# per-exchange allocation contract: an 8192-agent hypercube min cell with
# a 60·N (~500k) initiation budget runs to convergence in ~73 allocs/op —
# exclusively setup (shard structs, mailbox slab, CSR arrays, run
# queues); the event loop's push/pop/steal/defer hot path is
# allocation-free by the detlint hotalloc contract. The budget of 400
# sits ~5× above setup: a regression that allocates even one object per
# exchange (a boxed message, a heap node) adds tens of thousands and
# fails loudly.
#
# Benchmarks run one iteration with a fixed seed, so allocs/op is a stable
# budget number for the simulator and a bounded-noise one for the runtime.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go test -run '^$' -bench 'BenchmarkSimComponentRing64$|BenchmarkSimPairwiseSharded4k$|BenchmarkAsyncRuntimeMin$|BenchmarkSweepGrid$|BenchmarkSimWithDynamics$|BenchmarkSimPairwiseDelta1e5$|BenchmarkJoinSplice$|BenchmarkSimRoundProbed$|BenchmarkSimPairwiseQuiescent1e5$|BenchmarkSimPairwiseAverageWrites1e5$|BenchmarkSchedExchange1e4$' -benchtime=1x -benchmem .)
echo "$out"

fail=0
check() {
  local name=$1 budget=$2 line allocs unit
  line=$(echo "$out" | awk -v n="^$name" '$1 ~ n {print; exit}')
  if [ -z "$line" ]; then
    echo "BUDGET FAIL: $name: no benchmark output (renamed? build failure swallowed?)" >&2
    fail=1
    return
  fi
  allocs=$(echo "$line" | awk '{print $(NF-1)}')
  unit=$(echo "$line" | awk '{print $NF}')
  # Parse defensively: a format drift (missing -benchmem columns, a
  # non-integer in the allocs field) must fail the budget, not slip
  # through an arithmetic-test error as a pass.
  if [ "$unit" != "allocs/op" ] || ! [[ "$allocs" =~ ^[0-9]+$ ]]; then
    echo "BUDGET FAIL: $name: unparseable benchmark line (want '<n> allocs/op' tail): $line" >&2
    fail=1
    return
  fi
  if [ "$allocs" -gt "$budget" ]; then
    echo "BUDGET FAIL: $name: $allocs allocs/op > budget $budget" >&2
    fail=1
  else
    echo "BUDGET OK: $name: $allocs allocs/op <= $budget"
  fi
}

check BenchmarkSimComponentRing64 1600
check BenchmarkSimPairwiseSharded4k 1500
check BenchmarkAsyncRuntimeMin 1200
check BenchmarkSweepGrid 1200
check BenchmarkSimWithDynamics 1600
check BenchmarkSimPairwiseDelta1e5 400
check BenchmarkJoinSplice 400
check BenchmarkSimRoundProbed 400
check BenchmarkSimPairwiseQuiescent1e5 140
check BenchmarkSimPairwiseAverageWrites1e5 140
check BenchmarkSchedExchange1e4 400
exit $fail
