package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// The sched workload runs sched.Run with Workers = GOMAXPROCS in
// repetitions of two parts. Min runs to convergence on Hypercube(schedMinDim)
// from schedMinPerRep fresh instances, a time-to-solution measure: the
// operations Min needs vary by about ±10% from one instance to the next, so
// the latency is a median over many instances rather than a repeat of one.
// Sum then runs on Hypercube(schedSumDim) over a fixed budget of
// schedSumOpsPerAgent initiations per agent, a throughput measure. Sum never
// converges on a hypercube, so every Sum run spends its whole budget and
// reaches the work-stealing path.
const (
	schedMinDim         = 14
	schedMinPerRep      = 10
	schedSumDim         = 15
	schedSumOpsPerAgent = 60
	// schedMinOpsPerAgent bounds a Min run (sched's own default): several
	// times the initiations Min needs, so only a stall reaches it.
	schedMinOpsPerAgent = 100
	// schedTailQ is the fixed tail percentile of the Min convergence time:
	// a 25-second run converges about sixty instances.
	schedTailQ = 0.75
)

// schedInputs is the sched workload's set-up: both graphs and the Sum
// run's initial states. Min instances draw theirs as they go.
type schedInputs struct {
	gMin, gSum *graph.Graph
	initSum    []int
}

// minInstance draws Min instance i: its initial states and run seed are
// substreams of the workload seed.
func minInstance(seed int64, i, n int) ([]int, int64) {
	rng := rand.New(rand.NewSource(engine.SubSeed(seed, 2*i)))
	return rng.Perm(4 * n)[:n], engine.SubSeed(seed, 2*i+1)
}

func schedHypercube(b *bench) error {
	in, err := measureSetup(b, func() (*schedInputs, error) {
		s := &schedInputs{gMin: graph.Hypercube(schedMinDim), gSum: graph.Hypercube(schedSumDim)}
		s.initSum = rand.New(rand.NewSource(b.seed)).Perm(4 * s.gSum.N())[:s.gSum.N()]
		return s, nil
	}, func(*schedInputs) {})
	if err != nil {
		return err
	}
	wantSum := 0
	for _, v := range in.initSum {
		wantSum += v
	}
	sumBudget := schedSumOpsPerAgent * in.gSum.N()
	minBudget := schedMinOpsPerAgent * in.gMin.N()

	var (
		minMs, tracedRepMs, repMs   []float64
		sumOps                      int
		sumNs                       int64
		instance                    int
		minRuns                     int64
		minOps, minProper, minBusy  int64
		minAdmits, minChecks        int64
		sumSteals, sumEnq, sumParks int64
		tracedSumOps                int64
	)
	start := time.Now()
	for rep := 0; b.nextRep(start, rep, 2); rep++ {
		traced := b.trace && rep%2 == 1
		repSpan := b.open("repetition", 0)
		var repNs int64
		for k := 0; k < schedMinPerRep; k++ {
			initial, seed := minInstance(b.seed, instance, in.gMin.N())
			instance++
			want := initial[0]
			for _, v := range initial {
				want = min(want, v)
			}
			var probe *obs.Probe
			if traced {
				probe = obs.NewProbe(obs.Config{})
			}
			span := b.open("run min", repSpan)
			t0 := time.Now()
			res, err := sched.Run[int](problems.NewMin(), in.gMin, initial, sched.Options{Seed: seed, MaxOps: minBudget, Probe: probe})
			wall := time.Since(t0)
			b.closeSpan(span)
			repNs += int64(wall)
			ok := b.schedCheck(fmt.Sprintf("min instance %d", instance-1), res, err, minBudget, func(final []int) string {
				if !res.Converged {
					return "Min did not converge"
				}
				for i, v := range final {
					if v != want {
						return fmt.Sprintf("agent %d holds %d, want min(S(0)) = %d", i, v, want)
					}
				}
				return ""
			})
			switch {
			case !ok:
			case traced:
				minRuns++
				minOps += int64(res.Ops)
				minProper += int64(res.ProperSteps)
				minBusy += int64(res.Rejections)
				minAdmits += probe.Report().Counters[obs.CounterSchedAdmits]
				minChecks += int64(res.QuiescenceChecks)
			default:
				minMs = append(minMs, float64(wall)/1e6)
			}
		}

		var probe *obs.Probe
		if traced {
			probe = obs.NewProbe(obs.Config{})
		}
		span := b.open("run sum", repSpan)
		t0 := time.Now()
		res, err := sched.Run[int](problems.NewSum(), in.gSum, in.initSum,
			sched.Options{Seed: b.seed, MaxOps: sumBudget, Probe: probe})
		wall := time.Since(t0)
		b.closeSpan(span)
		repNs += int64(wall)
		ok := b.schedCheck(fmt.Sprintf("sum run %d", rep), res, err, sumBudget, func(final []int) string {
			got := 0
			for _, v := range final {
				got += v
			}
			if got != wantSum {
				return fmt.Sprintf("Σ final %d ≠ Σ S(0) %d", got, wantSum)
			}
			return ""
		})
		switch {
		case !ok:
		case traced:
			c := probe.Report().Counters
			tracedSumOps += int64(res.Ops)
			sumSteals += c[obs.CounterSchedSteals]
			sumEnq += c[obs.CounterSchedEnqueues]
			sumParks += c[obs.CounterSchedParks]
		default:
			sumOps += res.Ops
			sumNs += int64(wall)
		}
		b.closeSpan(repSpan)
		if traced {
			tracedRepMs = append(tracedRepMs, float64(repNs)/1e6)
		} else {
			repMs = append(repMs, float64(repNs)/1e6)
		}
	}

	if !b.trace {
		b.report("throughput_per_s", "1/s", float64(sumOps)/time.Duration(sumNs).Seconds(),
			fmt.Sprintf("sched_exchanges_per_s: %d initiations over %v in %d Sum runs", sumOps, time.Duration(sumNs).Round(time.Millisecond), len(repMs)))
		b.report("latency_p50_ms", "ms", median(minMs), fmt.Sprintf("sched_converge_s × 1000: median of %d Min instances", len(minMs)))
		b.reportTail("latency_tail_ms", minMs, schedTailQ, "Min instances (sched_converge_s × 1000)")
		return nil
	}
	b.zero("env.", "dynamics.", "engine.", "problems.", "sim.", "sweep.")
	perRun := func(v int64) float64 { return float64(v) / float64(max(minRuns, 1)) }
	perMop := func(v int64) float64 { return float64(v) / (float64(max(tracedSumOps, 1)) / 1e6) }
	b.report("sched.proper_ratio", "ratio", float64(minProper)/float64(max(minOps, 1)), "Min runs: proper steps over initiations")
	b.report("sched.busy_ratio", "ratio", float64(minBusy)/float64(max(minOps, 1)), "Min runs: busy rejections over initiations")
	b.report("sched.admits", "count", perRun(minAdmits), "per Min run")
	b.report("sched.quiescence_checks", "count", perRun(minChecks), "per Min run")
	b.report("sched.steals_per_mop", "count/Mop", perMop(sumSteals), "Sum runs")
	b.report("sched.enqueues_per_mop", "count/Mop", perMop(sumEnq), "Sum runs")
	b.report("sched.parks_per_mop", "count/Mop", perMop(sumParks), "Sum runs")
	b.reportOverhead(repMs, tracedRepMs, "repetition (Min instances + Sum run, sched.Run time only)")
	return nil
}

// schedCheck is the sched oracle: no error, no monitor violation, and a
// run that ends neither converged nor at its initiation budget halted
// early — the double-dispatch symptom, which Result cannot name yet.
// sched runs with more than one worker are not deterministic, so there is
// no digest. It reports whether the run passed.
func (b *bench) schedCheck(op string, res *runtime.Result[int], err error, budget int, oracle func([]int) string) bool {
	if err != nil {
		b.check(op, []string{err.Error()})
		return false
	}
	var errs []string
	if len(res.Violations) > 0 {
		errs = append(errs, "monitor: "+res.Violations[0])
	}
	if !res.Converged && res.Ops < budget {
		errs = append(errs, fmt.Sprintf("halted early: unconverged after %d of %d initiations", res.Ops, budget))
	}
	if msg := oracle(res.Final); msg != "" {
		errs = append(errs, msg)
	}
	b.check(op, errs)
	return len(errs) == 0
}
