package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goodAxes is a known-valid flag set buildAxes must accept.
func goodAxes() (string, string, string, string, string, string) {
	return "churn:0.9,static", "min,gcd", "ring,hypercube", "16,32",
		"none,partition:2:1:40,crashes:0.02:20,burst:0.5:0:10,flap:2:1:20,partitioncycle:2:5:5,join:4:pref:10,amnesiacflap:2:1:20",
		"component,pairwise"
}

// TestBuildAxesAcceptsKnownValues: the full registry surface round-trips
// through the CLI parser.
func TestBuildAxesAcceptsKnownValues(t *testing.T) {
	envs, probs, topos, sizes, dyns, modes := goodAxes()
	a, err := buildAxes(envs, probs, topos, sizes, dyns, modes, 2, 1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Envs) != 2 || len(a.Problems) != 2 || len(a.Topos) != 2 ||
		len(a.Sizes) != 2 || len(a.Dynamics) != 8 || len(a.Modes) != 2 {
		t.Fatalf("axes lost values: %+v", a)
	}
	grid, err := a.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 2 * 8 * 2 * 2; len(grid.Cells) != want {
		t.Fatalf("grid has %d cells, want %d", len(grid.Cells), want)
	}
}

// TestBuildAxesRejectsUnknownValues is the loud-failure satellite: every
// axis rejects a bad value with an error that names the offender — and,
// for unknown registry families, lists the valid registered names — so
// cmd/sweep exits non-zero with an actionable message instead of
// silently running a wrong grid.
func TestBuildAxesRejectsUnknownValues(t *testing.T) {
	envs, probs, topos, sizes, dyns, modes := goodAxes()
	cases := []struct {
		name string
		call func() error
		want []string
	}{
		{"bad env", func() error {
			_, err := buildAxes("chrn:0.9", probs, topos, sizes, dyns, modes, 1, 1, 10, 0)
			return err
		}, []string{"chrn", "static", "churn", "powerloss", "adversary"}},
		{"bad env param", func() error {
			_, err := buildAxes("churn:2.0", probs, topos, sizes, dyns, modes, 1, 1, 10, 0)
			return err
		}, []string{"churn:2.0"}},
		{"bad problem", func() error {
			_, err := buildAxes(envs, "minn", topos, sizes, dyns, modes, 1, 1, 10, 0)
			return err
		}, []string{"minn"}},
		{"bad topo", func() error {
			_, err := buildAxes(envs, probs, "moebius", sizes, dyns, modes, 1, 1, 10, 0)
			return err
		}, []string{"moebius", "ring", "hypercube"}},
		{"bad size", func() error {
			_, err := buildAxes(envs, probs, topos, "32,huge", dyns, modes, 1, 1, 10, 0)
			return err
		}, []string{"huge"}},
		{"bad dynamics", func() error {
			_, err := buildAxes(envs, probs, topos, sizes, "meteor:0.5", modes, 1, 1, 10, 0)
			return err
		}, []string{"meteor", "crashes", "join", "amnesiacflap"}},
		{"bad dynamics param", func() error {
			_, err := buildAxes(envs, probs, topos, sizes, "partition:1:0:10", modes, 1, 1, 10, 0)
			return err
		}, []string{"partition:1:0:10"}},
		{"bad join topology", func() error {
			_, err := buildAxes(envs, probs, topos, sizes, "join:4:torus:10", modes, 1, 1, 10, 0)
			return err
		}, []string{"torus", "ring", "hypercube", "pref"}},
		{"bad mode", func() error {
			_, err := buildAxes(envs, probs, topos, sizes, dyns, "gossip", 1, 1, 10, 0)
			return err
		}, []string{"gossip"}},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", c.name, err, want)
			}
		}
	}
}

// TestFilterCells pins the -cells subset flag: indices and ranges
// select, original indices (and therefore seeds) are preserved, junk is
// rejected.
func TestFilterCells(t *testing.T) {
	envs, probs, topos, _, _, _ := goodAxes()
	a, err := buildAxes(envs, probs, topos, "16", "none", "component", 2, 7, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := a.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 16 {
		t.Fatalf("full grid has %d cells, want 16", len(grid.Cells))
	}

	sub, err := filterCells(grid, "0-2,9,14-15")
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, c := range sub.Cells {
		got = append(got, c.Index)
	}
	want := []int{0, 1, 2, 9, 14, 15}
	if len(got) != len(want) {
		t.Fatalf("filtered indices %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filtered indices %v, want %v", got, want)
		}
		if sub.Cells[i].Opts.Seed != grid.Cells[want[i]].Opts.Seed {
			t.Fatalf("cell %d: filtered seed differs from the full grid's", want[i])
		}
	}

	for _, bad := range []string{"", "x", "5-2", "-3", "9-", "400"} {
		if _, err := filterCells(grid, bad); err == nil {
			t.Errorf("filterCells(%q): expected an error", bad)
		}
	}
}

// TestOpenTraceFileRejectsUnwritablePath pins the up-front -trace
// validation: a path that cannot be created fails immediately — before
// any cell runs — with an error naming both the flag and the path, and a
// writable path opens cleanly.
func TestOpenTraceFileRejectsUnwritablePath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-subdir", "trace.jsonl")
	if _, err := openTraceFile(bad); err == nil {
		t.Fatalf("openTraceFile(%q): expected an error", bad)
	} else {
		for _, want := range []string{"-trace", bad} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
	// A directory is unwritable as a file too — same loud failure.
	if _, err := openTraceFile(dir); err == nil {
		t.Fatalf("openTraceFile(%q) on a directory: expected an error", dir)
	}

	good := filepath.Join(dir, "trace.jsonl")
	f, err := openTraceFile(good)
	if err != nil {
		t.Fatalf("openTraceFile(%q): %v", good, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(good); err != nil {
		t.Fatalf("trace file not created: %v", err)
	}
}

// TestJoinRingOnTorusExitsNonZero runs the command itself (this test
// binary re-executed with SWEEP_MAIN_ARGS set) on a join:K:ring schedule
// over a torus: the grid must be rejected up front — exit status 1 and
// an error naming the dynamics and the topology — where the cell used
// to panic mid-run on the missing closing edge.
func TestJoinRingOnTorusExitsNonZero(t *testing.T) {
	if args := os.Getenv("SWEEP_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestJoinRingOnTorusExitsNonZero$")
	cmd.Env = append(os.Environ(),
		"SWEEP_MAIN_ARGS=-envs static -problems min -topos torus -sizes 64 -dynamics join:4:ring:8")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("sweep exited with %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	msg := stderr.String()
	for _, want := range []string{"join:4:ring:8", "torus", "no live closing edge"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q does not name %q", msg, want)
		}
	}
	if strings.Contains(msg, "panic") {
		t.Errorf("sweep panicked instead of rejecting the grid:\n%s", msg)
	}
}
