// Command perfbench is the repository benchmark. It drives the three
// execution layers through their public entry points only — sim.RunWith on
// a warm sim.Scratch, sweep.Runner.Run, and sched.Run — checks every
// output against oracles that do not rely on the engine's own monitor,
// and prints one JSON result line last on standard output.
//
// Build and run it from the repository root through run.sh, which builds
// this package from the checkout's sources:
//
//	bash perfbench/run.sh --workload ring-avg-writes --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured on
// untraced runs. With --trace 1 it carries the per-layer metrics: the
// workload then alternates untraced and traced repetitions, the traced
// ones attach the program's obs.Probe and record the benchmark's own
// spans, and the difference between the two kinds is reported as the
// tracing overhead. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, the
// per-layer ones with their units; a run fails loudly if its workload left
// one of them unset.
var endToEnd = []string{"setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}

var perLayer = []struct{ name, unit string }{
	{"env.step_ms", "ms"}, {"dynamics.ms", "ms"}, {"engine.touched_ms", "ms"},
	{"engine.matcher_update_ms", "ms"}, {"engine.match_ms", "ms"}, {"problems.step_ms", "ms"},
	{"engine.monitor_ms", "ms"}, {"sim.other_ms", "ms"}, {"sim.round_span_ms", "ms"},
	{"sim.other_share_pct", "%"}, {"sim.groups", "count"}, {"engine.matched_pairs", "count"},
	{"sim.proper_ratio", "ratio"}, {"engine.touched_edges", "count"}, {"engine.staged_deltas", "count"},
	{"engine.shard_merges", "count"}, {"engine.pool_batches", "count"}, {"engine.pool_items", "count"},
	{"engine.pool_serial", "count"}, {"sweep.worker_busy_frac", "ratio"}, {"sweep.rounds_per_cell", "count"},
	{"sched.proper_ratio", "ratio"}, {"sched.busy_ratio", "ratio"}, {"sched.admits", "count"},
	{"sched.quiescence_checks", "count"}, {"sched.steals_per_mop", "count/Mop"},
	{"sched.enqueues_per_mop", "count/Mop"}, {"sched.parks_per_mop", "count/Mop"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(*bench) error{
	"ring-avg-writes":    ringAvgWrites,
	"ring-min-quiescent": ringMinQuiescent,
	"grid-small-cells":   gridSmallCells,
	"sched-hypercube":    schedHypercube,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 25, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span files and the determinism pin")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		known := make([]string, 0, len(workloads))
		for k := range workloads {
			known = append(known, k)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds ≥ 1 and --trace 0|1\n", known)
		os.Exit(2)
	}
	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !b.trace {
		b.report("peak_rss_mb", "MB", peakRSSMB(), "process maximum resident set")
	}
	if err := b.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	want := endToEnd
	if b.trace {
		want = nil
		for _, m := range perLayer {
			want = append(want, m.name)
		}
	}
	res := result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := b.metrics[m]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, m)
			os.Exit(1)
		}
		res.Metrics[m] = v
	}
	if res.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was attempted\n", *name)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
