package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The grid crosses every axis value below. Cells are small (64 and 256
// requested agents), so per-cell bookkeeping, component derivation, the
// environment step and dynamics carry the weight, and every cell runs the
// single-tracker state layout. Joins use preferential attachment:
// join:K:ring panics on a non-ring topology (see README.md).
var (
	gridEnvs     = []string{"churn:0.5", "powerloss:0.2", "static"}
	gridProblems = []string{"min", "max", "sum", "gcd"}
	gridTopos    = []string{"ring", "torus", "hypercube"}
	gridSizes    = []int{64, 256}
	gridDynamics = []string{"none", "partition:2:0:40", "crashes:0.05:10", "join:4:pref:8"}
	gridModes    = []sim.Mode{sim.ComponentMode, sim.PairwiseMode}
)

const (
	gridMaxRounds = 1000
	// gridTailQ is the fixed tail percentile of the cell latency; one
	// 25-second run measures several thousand cells.
	gridTailQ = 0.99
)

func gridAxes(seed int64, envs, probs, dyns []string) (sweep.Axes, error) {
	a := sweep.Axes{Sizes: gridSizes, Modes: gridModes, BaseSeed: seed, MaxRounds: gridMaxRounds}
	for _, s := range envs {
		d, err := env.ParseDesc(s)
		if err != nil {
			return a, err
		}
		a.Envs = append(a.Envs, d)
	}
	for _, s := range probs {
		d, err := problems.ParseDesc(s)
		if err != nil {
			return a, err
		}
		a.Problems = append(a.Problems, d)
	}
	for _, s := range gridTopos {
		t, err := sweep.ParseTopo(s)
		if err != nil {
			return a, err
		}
		a.Topos = append(a.Topos, t)
	}
	for _, s := range dyns {
		d, err := dynamics.ParseDesc(s)
		if err != nil {
			return a, err
		}
		a.Dynamics = append(a.Dynamics, d)
	}
	return a, nil
}

// gridEngine is the grid workload's set-up: the expanded grid and warm
// runners (a traced run keeps a second runner whose workers carry probes).
type gridEngine struct {
	grid           *sweep.Grid
	plain, probed  *sweep.Runner
	probedReported obs.RoundReport
}

func (e *gridEngine) close() {
	e.plain.Close()
	if e.probed != nil {
		e.probed.Close()
	}
}

func gridSmallCells(b *bench) error {
	workers := runtime.NumCPU()
	eng, err := measureSetup(b, func() (*gridEngine, error) {
		axes, err := gridAxes(b.seed, gridEnvs, gridProblems, gridDynamics)
		if err != nil {
			return nil, err
		}
		g, err := axes.Grid()
		if err != nil {
			return nil, err
		}
		// A small grid over every topology, size and mode brings each
		// worker's engine up before the measured grids.
		warmAxes, err := gridAxes(b.seed, []string{"static"}, []string{"min"}, []string{"none"})
		if err != nil {
			return nil, err
		}
		warm, err := warmAxes.Grid()
		if err != nil {
			return nil, err
		}
		e := &gridEngine{grid: g}
		e.plain = sweep.NewRunner(sweep.Options{Workers: workers, KeepFinal: true})
		runners := []*sweep.Runner{e.plain}
		if b.trace {
			e.probed = sweep.NewRunner(sweep.Options{Workers: workers, KeepFinal: true,
				NewProbe: func(int) *obs.Probe { return obs.NewProbe(obs.Config{}) }})
			runners = append(runners, e.probed)
		}
		for _, r := range runners {
			res, err := r.Run(warm)
			if err != nil {
				b.check("warm-up grid", []string{err.Error()})
				continue
			}
			for _, c := range res.Cells {
				b.check(fmt.Sprintf("warm-up cell %d", c.Cell.Index), checkCell(c))
			}
		}
		if e.probed != nil {
			e.probedReported = e.probed.ObsReport()
		}
		return e, nil
	}, func(e *gridEngine) { e.close() })
	if err != nil {
		return err
	}
	defer eng.close()

	var (
		cellMs                 []float64
		gridMs, tracedGridMs   []float64
		cells                  int
		elapsedNs              int64
		firstDigest            string
		busyNs, tracedElapsed  int64
		tracedCells, tracedRds int64
		tracedSteps            int64
	)
	start := time.Now()
	for rep := 0; b.nextRep(start, rep, 2); rep++ {
		traced := b.trace && rep%2 == 1
		runner, grid := eng.plain, eng.grid
		var starts, ends []int64
		if traced {
			runner = eng.probed
			grid, starts, ends = b.spannedGrid(eng.grid)
		}
		gridSpan := b.open("grid", 0)
		res, err := runner.Run(grid)
		b.closeSpan(gridSpan)
		if err != nil {
			b.check(fmt.Sprintf("grid %d", rep), []string{err.Error()})
			continue
		}
		for _, c := range res.Cells {
			b.check(fmt.Sprintf("grid %d cell %d", rep, c.Cell.Index), checkCell(c))
		}
		b.sameDigest(&firstDigest, gridDigest(res), fmt.Sprintf("grid %d", rep))
		if !traced {
			for _, c := range res.Cells {
				cellMs = append(cellMs, float64(c.Duration)/1e6)
			}
			cells += len(res.Cells)
			elapsedNs += int64(res.Elapsed)
			gridMs = append(gridMs, float64(res.Elapsed)/1e6)
			continue
		}
		tracedGridMs = append(tracedGridMs, float64(res.Elapsed)/1e6)
		tracedElapsed += int64(res.Elapsed)
		for i, c := range res.Cells {
			b.addSpan("cell", gridSpan, starts[i], max(starts[i], ends[i]))
			busyNs += int64(c.Duration)
			tracedCells++
			tracedRds += int64(c.Rounds)
			tracedSteps += int64(c.GroupSteps)
		}
	}
	if firstDigest != "" {
		if err := b.pin(fmt.Sprintf("%s/seed=%d", b.workload, b.seed), firstDigest); err != nil {
			return err
		}
	}

	if !b.trace {
		b.report("throughput_per_s", "1/s", float64(cells)/time.Duration(elapsedNs).Seconds(),
			fmt.Sprintf("cells_per_s: %d cells in %d grids of %d on %d workers", cells, len(gridMs), len(eng.grid.Cells), workers))
		b.report("latency_p50_ms", "ms", median(cellMs), fmt.Sprintf("cell_ms_p50 over %d cells", len(cellMs)))
		b.reportTail("latency_tail_ms", cellMs, gridTailQ, "cells (cell_ms_tail)")
		return nil
	}

	rep := eng.probed.ObsReport().Sub(eng.probedReported)
	rounds := rep.Rounds()
	perRound := func(ph obs.Phase) float64 { return float64(rep.PhaseNs(ph)) / 1e6 / float64(rounds) }
	count := func(c obs.Counter) float64 { return float64(rep.Counters[c]) / float64(rounds) }
	note := fmt.Sprintf("per round, mean over %d rounds of %d traced cells", rounds, tracedCells)
	b.report("env.step_ms", "ms", perRound(obs.PhaseEnvStep), note)
	b.report("dynamics.ms", "ms", perRound(obs.PhaseDynamics), note)
	b.report("engine.touched_ms", "ms", perRound(obs.PhaseTouched), note)
	b.report("engine.matcher_update_ms", "ms", perRound(obs.PhaseMatcherUpdate), note)
	b.report("engine.match_ms", "ms", perRound(obs.PhaseMatch), note)
	b.report("problems.step_ms", "ms", perRound(obs.PhaseGroupStep), note)
	b.report("engine.monitor_ms", "ms", perRound(obs.PhaseMonitor), note)
	b.zero("sim.other_ms", "sim.round_span_ms", "sim.other_share_pct")
	b.report("sim.groups", "count", count(obs.CounterGroups), "per round")
	b.report("engine.matched_pairs", "count", count(obs.CounterMatchedPairs), "per round")
	b.report("sim.proper_ratio", "ratio", float64(tracedSteps)/float64(rep.Counters[obs.CounterGroups]), "proper steps over groups")
	b.report("engine.touched_edges", "count", count(obs.CounterTouchedEdges), "per round")
	b.report("engine.staged_deltas", "count", count(obs.CounterStagedDeltas), "per round")
	b.report("engine.shard_merges", "count", count(obs.CounterShardMerges), "per round")
	b.report("engine.pool_batches", "count", count(obs.CounterPoolBatches), "per round")
	b.report("engine.pool_items", "count", count(obs.CounterPoolItems), "per round")
	b.report("engine.pool_serial", "count", count(obs.CounterPoolSerial), "per round")
	b.report("sweep.worker_busy_frac", "ratio", float64(busyNs)/(float64(tracedElapsed)*float64(workers)),
		fmt.Sprintf("summed cell time over elapsed × %d workers", workers))
	b.report("sweep.rounds_per_cell", "count", float64(tracedRds)/float64(tracedCells), "")
	b.zero("sched.")
	b.reportOverhead(gridMs, tracedGridMs, "grid")
	return nil
}

// spannedGrid copies the grid with per-cell hooks that time each cell for
// the span file: the start when the worker builds the cell's problem
// instance, the end at the cell's last OnRound callback. Each cell runs on
// one worker goroutine and writes only its own slots, which Run's return
// orders before the reads.
func (b *bench) spannedGrid(g *sweep.Grid) (*sweep.Grid, []int64, []int64) {
	out := &sweep.Grid{Cells: append([]sweep.Cell(nil), g.Cells...)}
	starts := make([]int64, len(out.Cells))
	ends := make([]int64, len(out.Cells))
	for i := range out.Cells {
		c := &out.Cells[i]
		newProblem := c.Problem.New
		c.Problem.New = func(n int) core.Problem[int] {
			starts[i] = b.now()
			return newProblem(n)
		}
		c.Opts.OnRound = func(sim.RoundInfo) { ends[i] = b.now() }
	}
	return out, starts, ends
}

// checkCell is the cell oracle. It regenerates the cell's initial states
// from its seed (founding agents and joiners, the layout sweep feeds
// sim.RunWith) and checks the final states against f(S(0)) computed here:
// min, max and gcd keep f(final) = f(S(0)) and reach it everywhere when
// converged; sum keeps Σ final = Σ S(0).
func checkCell(c sweep.CellResult) []string {
	var errs []string
	cell := c.Cell
	if c.Violations > 0 {
		errs = append(errs, fmt.Sprintf("%d monitor violations", c.Violations))
	}
	if !c.Converged && c.Rounds != gridMaxRounds {
		errs = append(errs, fmt.Sprintf("stopped unconverged after %d of %d rounds", c.Rounds, gridMaxRounds))
	}
	joiners := 0
	if cell.Opts.Dynamics != nil {
		joiners = cell.Opts.Dynamics.TotalJoiners()
	}
	n := cell.Graph.N() + joiners
	initial := cell.Problem.Init(n, rand.New(rand.NewSource(cell.InitSeed)))
	if len(c.Final) != n {
		return append(errs, fmt.Sprintf("%d final states for %d agents", len(c.Final), n))
	}
	if cell.Problem.Name == "sum" {
		in, out := 0, 0
		for i := range initial {
			in += initial[i]
			out += c.Final[i]
		}
		if in != out {
			errs = append(errs, fmt.Sprintf("Σ final %d ≠ Σ S(0) %d", out, in))
		}
		return errs
	}
	var fold func(a, b int) int
	switch cell.Problem.Name {
	case "min":
		fold = func(a, b int) int { return min(a, b) }
	case "max":
		fold = func(a, b int) int { return max(a, b) }
	case "gcd":
		fold = gcd
	default:
		return append(errs, "no oracle for problem "+cell.Problem.Name)
	}
	want, got := initial[0], c.Final[0]
	for i := 1; i < n; i++ {
		want = fold(want, initial[i])
		got = fold(got, c.Final[i])
	}
	if got != want {
		errs = append(errs, fmt.Sprintf("f(final) = %d, want f(S(0)) = %d", got, want))
	}
	if c.Converged {
		for i, v := range c.Final {
			if v != want {
				errs = append(errs, fmt.Sprintf("converged but agent %d holds %d, want %d", i, v, want))
				break
			}
		}
	}
	return errs
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gridDigest hashes the grid's table bytes and every cell's final states.
func gridDigest(res *sweep.Result) string {
	h := sha256.New()
	h.Write([]byte(res.Table.CSV()))
	var buf [8]byte
	for _, c := range res.Cells {
		for _, v := range c.Final {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
