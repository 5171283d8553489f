package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/sim"
)

// The two ring workloads run pairwise steps on Ring(ringN) under
// EdgeChurn(ringChurnP) for a fixed ringRounds per run, StopOnConverged
// off, on one warm sim.Scratch. ringN is large enough that the sharded
// state layout engages (sim.DefaultShardThreshold) and every O(N) phase
// dominates a round.
const (
	ringN          = 100_000
	ringChurnP     = 0.999
	ringRounds     = 64
	ringWarmRounds = 4
	// ringTailQ is the fixed tail percentile of the round latency: a
	// 25-second run of the slower ring workload measures ~800 rounds, so
	// p95 keeps more than ten samples beyond it.
	ringTailQ = 0.95
	// avgTol is the Average problem's tolerance; the mean must survive a
	// run within it.
	avgTol = 1e-6
)

// ringAvgWrites: pairwise Average from random values, so nearly every
// matched pair writes every round and the shard flush and monitor carry a
// heavy delta stream.
func ringAvgWrites(b *bench) error {
	initial := func() []float64 {
		rng := rand.New(rand.NewSource(b.seed))
		v := make([]float64, ringN)
		for i := range v {
			v[i] = rng.Float64() * 1000
		}
		return v
	}
	oracle := func(initial []float64, res *sim.Result[float64]) []string {
		var in, out float64
		for _, v := range initial {
			in += v
		}
		for _, v := range res.Final {
			out += v
		}
		if d := math.Abs(out - in); d > avgTol*float64(len(initial)) {
			return []string{fmt.Sprintf("sum drifted by %g (mean tolerance %g)", d, avgTol)}
		}
		return nil
	}
	return runRing(b, problems.NewAverage(avgTol), initial, oracle)
}

// ringMinQuiescent: pairwise Min from a state already at consensus, so no
// step changes anything and every millisecond of a round is overhead.
func ringMinQuiescent(b *bench) error {
	initial := func() []int {
		v := make([]int, ringN)
		c := rand.New(rand.NewSource(b.seed)).Intn(1 << 20)
		for i := range v {
			v[i] = c
		}
		return v
	}
	oracle := func(initial []int, res *sim.Result[int]) []string {
		var errs []string
		if !res.Converged {
			errs = append(errs, "a run started at consensus is not converged")
		}
		if res.GroupSteps != 0 {
			errs = append(errs, fmt.Sprintf("%d proper steps from a fixed point", res.GroupSteps))
		}
		for i, v := range res.Final {
			if v != initial[0] {
				errs = append(errs, fmt.Sprintf("agent %d holds %d, want min(S(0)) = %d", i, v, initial[0]))
				break
			}
		}
		return errs
	}
	return runRing(b, problems.NewMin(), initial, oracle)
}

// ringEngine is the set-up a ring workload measures: the graph, the
// initial states, and a warm engine.
type ringEngine[T any] struct {
	g       *graph.Graph
	initial []T
	rc      *engine.RunContext
	sc      *sim.Scratch[T]
}

// phaseSum accumulates per-round probe deltas over traced rounds.
type phaseSum struct {
	rounds  int64
	spanNs  int64
	phaseNs [obs.NumPhases]int64
	counter [obs.NumCounters]int64
	proper  int64
}

func runRing[T any](b *bench, p core.Problem[T], newInitial func() []T, oracle func([]T, *sim.Result[T]) []string) error {
	opts := func(rounds int) sim.Options {
		return sim.Options{Seed: b.seed, Mode: sim.PairwiseMode, MaxRounds: rounds}
	}
	check := func(op string, initial []T, res *sim.Result[T], err error, rounds int) {
		if err != nil {
			b.check(op, []string{err.Error()})
			return
		}
		var errs []string
		if len(res.Violations) > 0 {
			errs = append(errs, fmt.Sprintf("monitor: %s", res.Violations[0]))
		}
		if res.Rounds != rounds {
			errs = append(errs, fmt.Sprintf("ran %d rounds, want %d", res.Rounds, rounds))
		}
		if len(res.Final) != len(initial) {
			errs = append(errs, fmt.Sprintf("%d final states for %d agents", len(res.Final), len(initial)))
		} else {
			errs = append(errs, oracle(initial, res)...)
		}
		b.check(op, errs)
	}

	eng, err := measureSetup(b, func() (*ringEngine[T], error) {
		e := &ringEngine[T]{g: graph.Ring(ringN), initial: newInitial()}
		e.rc = engine.NewRunContext(0)
		e.sc = sim.NewScratch[T](e.rc)
		// A short warm-up run binds the shard set, matcher, pool and
		// arenas that every measured run then reuses.
		res, err := sim.RunWith(e.sc, p, env.NewEdgeChurn(e.g, ringChurnP), e.initial, opts(ringWarmRounds))
		check("warm-up run", e.initial, res, err, ringWarmRounds)
		return e, nil
	}, func(e *ringEngine[T]) { e.rc.Close() })
	if err != nil {
		return err
	}
	defer eng.rc.Close()

	var (
		probe              = obs.NewProbe(obs.Config{})
		roundMs            []float64 // untraced round spans
		runMs, tracedRunMs []float64
		untracedRounds     int
		untracedNs         int64
		sum                phaseSum
		coverageBreaches   int
		worstExcessNs      int64
		firstDigest        string
		traced             bool
		prev               obs.RoundReport
		last               int64
		runSpan            int
	)
	o := opts(ringRounds)
	o.OnRound = func(ri sim.RoundInfo) {
		t := b.now()
		if ri.Round > 0 {
			ns := t - last
			if !traced {
				roundMs = append(roundMs, float64(ns)/1e6)
			} else {
				rep := probe.Report()
				d := rep.Sub(prev)
				prev = rep
				var phases int64
				for ph := obs.Phase(0); ph < obs.PhaseCell; ph++ {
					sum.phaseNs[ph] += d.Phases[ph].TotalNs
					phases += d.Phases[ph].TotalNs
				}
				for c := range d.Counters {
					sum.counter[c] += d.Counters[c]
				}
				// The probe's phases all run between two OnRound calls, so
				// they can never add up to more than the round span.
				if excess := phases - ns; excess > 1000 {
					coverageBreaches++
					worstExcessNs = max(worstExcessNs, excess)
				}
				sum.rounds++
				sum.spanNs += ns
				sum.proper += int64(ri.ProperSteps)
				b.addSpan("round", runSpan, last, t)
			}
		} else if traced {
			prev = probe.Report()
		}
		last = b.now()
	}

	start := time.Now()
	for rep := 0; b.nextRep(start, rep, 2); rep++ {
		traced = b.trace && rep%2 == 1
		o.Probe = nil
		if traced {
			o.Probe = probe
		}
		runSpan = b.open("run", 0)
		t0 := time.Now()
		res, err := sim.RunWith(eng.sc, p, env.NewEdgeChurn(eng.g, ringChurnP), eng.initial, o)
		wall := time.Since(t0)
		b.closeSpan(runSpan)
		check(fmt.Sprintf("run %d", rep), eng.initial, res, err, ringRounds)
		if err != nil {
			continue
		}
		b.sameDigest(&firstDigest, ringDigest(res), fmt.Sprintf("run %d", rep))
		if traced {
			tracedRunMs = append(tracedRunMs, float64(wall)/1e6)
		} else {
			runMs = append(runMs, float64(wall)/1e6)
			untracedRounds += res.Rounds
			untracedNs += int64(wall)
		}
	}
	if firstDigest != "" {
		if err := b.pin(fmt.Sprintf("%s/seed=%d", b.workload, b.seed), firstDigest); err != nil {
			return err
		}
	}
	if coverageBreaches > 0 {
		b.pinError("phase coverage: in %d rounds the probe phases exceeded the round span (worst by %d ns)", coverageBreaches, worstExcessNs)
	}

	if !b.trace {
		b.report("throughput_per_s", "1/s", float64(untracedRounds)/time.Duration(untracedNs).Seconds(),
			fmt.Sprintf("rounds_per_s: %d rounds in %d runs of %d", untracedRounds, len(runMs), ringRounds))
		b.report("latency_p50_ms", "ms", median(roundMs), fmt.Sprintf("round_ms_p50 over %d rounds", len(roundMs)))
		b.reportTail("latency_tail_ms", roundMs, ringTailQ, "rounds (round_ms_tail)")
		return nil
	}

	perRound := func(ns int64) float64 { return float64(ns) / 1e6 / float64(sum.rounds) }
	count := func(c obs.Counter) float64 { return float64(sum.counter[c]) / float64(sum.rounds) }
	var phases int64
	for _, ns := range sum.phaseNs {
		phases += ns
	}
	note := fmt.Sprintf("per round, mean over %d traced rounds", sum.rounds)
	b.report("env.step_ms", "ms", perRound(sum.phaseNs[obs.PhaseEnvStep]), note)
	b.report("dynamics.ms", "ms", perRound(sum.phaseNs[obs.PhaseDynamics]), note)
	b.report("engine.touched_ms", "ms", perRound(sum.phaseNs[obs.PhaseTouched]), note)
	b.report("engine.matcher_update_ms", "ms", perRound(sum.phaseNs[obs.PhaseMatcherUpdate]), note)
	b.report("engine.match_ms", "ms", perRound(sum.phaseNs[obs.PhaseMatch]), note)
	b.report("problems.step_ms", "ms", perRound(sum.phaseNs[obs.PhaseGroupStep]), note)
	b.report("engine.monitor_ms", "ms", perRound(sum.phaseNs[obs.PhaseMonitor]), note)
	b.report("sim.other_ms", "ms", perRound(sum.spanNs-phases), "round span minus the probe phases")
	b.report("sim.round_span_ms", "ms", perRound(sum.spanNs), "between consecutive OnRound callbacks")
	b.report("sim.other_share_pct", "%", 100*float64(sum.spanNs-phases)/float64(sum.spanNs), "share of the round span in no phase")
	b.report("sim.groups", "count", count(obs.CounterGroups), "per round")
	b.report("engine.matched_pairs", "count", count(obs.CounterMatchedPairs), "per round")
	b.report("sim.proper_ratio", "ratio", float64(sum.proper)/float64(sum.counter[obs.CounterGroups]), "proper steps over groups")
	b.report("engine.touched_edges", "count", count(obs.CounterTouchedEdges), "per round")
	b.report("engine.staged_deltas", "count", count(obs.CounterStagedDeltas), "per round")
	b.report("engine.shard_merges", "count", count(obs.CounterShardMerges), "per round")
	b.report("engine.pool_batches", "count", count(obs.CounterPoolBatches), "per round")
	b.report("engine.pool_items", "count", count(obs.CounterPoolItems), "per round")
	b.report("engine.pool_serial", "count", count(obs.CounterPoolSerial), "per round")
	b.zero("sweep.", "sched.")
	b.reportOverhead(runMs, tracedRunMs, fmt.Sprintf("%d-round run", ringRounds))
	return nil
}

// ringDigest hashes what a run computed: its round and step counts and
// every final state.
func ringDigest[T any](res *sim.Result[T]) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(res.Rounds))
	put(uint64(res.GroupSteps))
	switch final := any(res.Final).(type) {
	case []float64:
		for _, v := range final {
			put(math.Float64bits(v))
		}
	case []int:
		for _, v := range final {
			put(uint64(v))
		}
	default:
		panic(fmt.Sprintf("ringDigest: unsupported state type %T", res.Final))
	}
	return hex.EncodeToString(h.Sum(nil))
}
