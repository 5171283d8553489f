package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench carries one invocation's configuration and everything it
// measures: the operation tally, the metrics, and — in a traced run — the
// benchmark's own spans.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	outDir   string

	t0 time.Time

	attempted, failed int
	failures          []string
	// pinErrs records determinism and phase-coverage breaches: they make
	// the run incorrect without belonging to a single operation.
	pinErrs []string

	metrics map[string]metric
	spans   []span
}

func newBench(workload string, seed int64, budget time.Duration, trace bool, outDir string) *bench {
	return &bench{
		workload: workload, seed: seed, budget: budget, trace: trace, outDir: outDir,
		t0: time.Now(), metrics: map[string]metric{},
	}
}

// now returns monotonic nanoseconds since the invocation started.
func (b *bench) now() int64 { return int64(time.Since(b.t0)) }

// check tallies one attempted operation; any problem makes it a failure.
func (b *bench) check(op string, problems []string) {
	b.attempted++
	if len(problems) == 0 {
		return
	}
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, op+": "+strings.Join(problems, "; "))
	}
}

func (b *bench) pinError(format string, args ...any) {
	if len(b.pinErrs) < 8 {
		b.pinErrs = append(b.pinErrs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) correct() bool { return b.failed == 0 && len(b.pinErrs) == 0 }

// report records a metric and prints it with its unit and a short note.
func (b *bench) report(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  # " + note
	}
	fmt.Printf("%-26s %14.6g %-9s%s\n", name, v, unit, note)
}

// zero reports 0 for the per-layer metrics of layers the workload does not
// run: every declared metric whose name starts with one of the prefixes.
func (b *bench) zero(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				b.report(m.name, m.unit, 0, "layer not run by this workload")
				break
			}
		}
	}
}

// finish prints the failure tally, writes the span file of a traced run,
// and reports what made the run incorrect, if anything.
func (b *bench) finish() error {
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("%-26s %14.6g %-9s  # %d failed of %d attempted\n", "failed_frac", frac, "ratio", b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	for _, e := range b.pinErrs {
		fmt.Printf("# INCORRECT %s\n", e)
	}
	if b.trace {
		path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.writeSpans(path); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(b.spans), path)
	}
	return nil
}

// span is one interval the benchmark recorded around a call into the
// program. IDs are 1-based positions in bench.spans; parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// addSpan keeps a finished span in memory (traced runs only) and returns
// its ID, or 0 when tracing is off.
func (b *bench) addSpan(name string, parent int, start, end int64) int {
	if !b.trace {
		return 0
	}
	b.spans = append(b.spans, span{ID: len(b.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(b.spans)
}

// open starts a span whose end closeSpan fills in later.
func (b *bench) open(name string, parent int) int {
	t := b.now()
	return b.addSpan(name, parent, t, t)
}

func (b *bench) closeSpan(id int) {
	if id > 0 {
		b.spans[id-1].End = b.now()
	}
}

func (b *bench) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range b.spans {
		if err := enc.Encode(&b.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// measureSetup runs setup at least minSetups times and for at least
// minSetupTime in total (cheap set-ups repeat more, so their median is
// steady), and reports the median as setup_s. Every instance but the last
// is released; the last is returned.
func measureSetup[S any](b *bench, setup func() (S, error), release func(S)) (S, error) {
	var times []float64
	var cur S
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < minSetupTime); i++ {
		if i > 0 {
			release(cur)
		}
		// Collect the released instance first, so it neither shows in
		// peak_rss_mb nor slows the next set-up.
		runtime.GC()
		id := b.open("setup", 0)
		start := time.Now()
		s, err := setup()
		d := time.Since(start)
		b.closeSpan(id)
		if err != nil {
			var zero S
			return zero, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		total += d
		cur = s
	}
	if !b.trace {
		b.report("setup_s", "s", median(times), fmt.Sprintf("median of %d set-ups", len(times)))
	}
	return cur, nil
}

const (
	minSetups    = 5
	maxSetups    = 200
	minSetupTime = time.Second
)

// nextRep reports whether another repetition should start: always until
// each of the `need` repetition kinds has run once, then until the
// measuring budget is spent. Before a repetition it collects garbage, so
// each one starts from the same heap and no repetition pays for the
// previous one's garbage.
func (b *bench) nextRep(start time.Time, done, need int) bool {
	if done >= need && time.Since(start) >= b.budget {
		return false
	}
	runtime.GC()
	return true
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// reportTail reports the tail of xs at percentile want — fixed per
// workload, so two commits compare the same percentile — provided at
// least ten samples lie beyond it. Otherwise it falls back to the highest
// ladder step that has ten beyond, or to the maximum when there are fewer
// than eleven samples, and says so.
func (b *bench) reportTail(name string, xs []float64, want float64, what string) {
	n := len(xs)
	beyond := func(q float64) int { return n - 1 - rankIndex(n, q) }
	q := want
	if beyond(q) < 10 {
		q = 0
		for _, step := range tailLadder {
			if step <= want && beyond(step) >= 10 {
				q = step
				break
			}
		}
	}
	if q == 0 {
		b.report(name, "ms", quantile(xs, 1), fmt.Sprintf("max of %d %s (fewer than 11 samples, so no percentile has 10 beyond it)", n, what))
		return
	}
	b.report(name, "ms", quantile(xs, q), fmt.Sprintf("p%g of %d %s, %d beyond", q*100, n, what, beyond(q)))
}

// reportOverhead reports the traced repetitions' median cost over the
// untraced ones', in percent.
func (b *bench) reportOverhead(untraced, traced []float64, what string) {
	u, t := median(untraced), median(traced)
	b.report("trace.overhead_pct", "%", 100*(t-u)/u,
		fmt.Sprintf("median %s: traced %.4g ms (n=%d) vs untraced %.4g ms (n=%d)", what, t, len(traced), u, len(untraced)))
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// pin compares the digest of this seed's outputs with the one an earlier
// invocation recorded in the output directory, then records it. Same
// seed, same inputs, same outputs: a mismatch is a determinism breach.
func (b *bench) pin(key, digest string) error {
	path := filepath.Join(b.outDir, "digests.json")
	pins := map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("determinism pin %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("determinism pin: %w", err)
	}
	if old, ok := pins[key]; ok {
		if old != digest {
			b.pinError("%s: output digest %s differs from %s recorded by an earlier run with the same seed", key, digest[:16], old[:16])
		}
		return nil
	}
	pins[key] = digest
	data, err = json.MarshalIndent(pins, "", " ")
	if err != nil {
		return fmt.Errorf("determinism pin: %w", err)
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return fmt.Errorf("determinism pin: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("determinism pin: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("determinism pin: %w", err)
	}
	return nil
}

// sameDigest checks a repetition's digest against the invocation's first.
func (b *bench) sameDigest(first *string, d, what string) {
	switch {
	case *first == "":
		*first = d
	case *first != d:
		b.pinError("%s: digest %s differs from the first repetition's %s with the same seed", what, d[:16], (*first)[:16])
	}
}
