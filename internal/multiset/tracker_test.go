package multiset

import (
	"math/rand"
	"testing"
)

// tagged is a tracked value whose tie order is visible: cmp compares v
// only, and id records the key the value was written for, so comparing
// views with == checks the (cmp, key) order, not just the multiset.
type tagged struct{ v, id int }

func cmpTagged(a, b tagged) int { return a.v - b.v }

// checkKeyed asserts that tr is exactly NewTracker over the positional
// states pop — same elements in the same order — and that its key
// bookkeeping is consistent: slot and owner are inverse permutations and
// no dead mark survived the repair.
func checkKeyed(t *testing.T, tr *Tracker[tagged], pop []tagged, where string) {
	t.Helper()
	want := NewTracker(cmpTagged, pop)
	if tr.Len() != len(pop) {
		t.Fatalf("%s: Len %d, want %d", where, tr.Len(), len(pop))
	}
	for i := range want.elems {
		if tr.elems[i] != want.elems[i] {
			t.Fatalf("%s: view[%d] = %v, rebuild has %v\n view    %v\n rebuild %v",
				where, i, tr.elems[i], want.elems[i], tr.elems, want.elems)
		}
	}
	if len(tr.slot) != len(pop) || len(tr.owner) != len(pop) {
		t.Fatalf("%s: %d slots and %d owners for %d keys", where, len(tr.slot), len(tr.owner), len(pop))
	}
	for key := range pop {
		s := tr.slot[key]
		if s < 0 || int(s) >= len(tr.elems) || tr.owner[s] != int32(key) || tr.elems[s] != pop[key] {
			t.Fatalf("%s: key %d maps to slot %d, which does not hold it", where, key, s)
		}
	}
	if tr.dead.Count() != 0 {
		t.Fatalf("%s: %d dead marks left after the repair", where, tr.dead.Count())
	}
}

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestTrackerKeyedMatchesRebuild drives keyed trackers over populations
// with heavy ties through random repair rounds — each re-staging none, one,
// about half or all of the agents — mixed with Append growth, and checks
// after every mutation that the view is element for element a fresh
// NewTracker over the positional states and that Gen moved exactly when
// something was applied. Every few rounds it also stages a bad batch — a
// stale old, a repeated key, a key out of range, mismatched lengths — which
// must panic and leave the tracker unchanged.
func TestTrackerKeyedMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const values = 8
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(48)
		if trial%50 == 0 {
			n = 1500 // long runs between changes: exercises the gallop's doubling
		}
		pop := make([]tagged, n)
		for i := range pop {
			pop[i] = tagged{rng.Intn(values), i}
		}
		tr := NewTracker(cmpTagged, pop)
		checkKeyed(t, tr, pop, "NewTracker")
		for round := 0; round < 30; round++ {
			if rng.Intn(5) == 0 {
				add := make([]tagged, 1+rng.Intn(4))
				for i := range add {
					add[i] = tagged{rng.Intn(values), len(pop) + i}
				}
				g := tr.Gen()
				tr.Append(add)
				pop = append(pop, add...)
				if tr.Gen() == g {
					t.Fatalf("trial %d round %d: Append did not bump Gen", trial, round)
				}
				checkKeyed(t, tr, pop, "Append")
			}
			n := len(pop)
			k := []int{0, min(1, n), n / 2, n}[rng.Intn(4)]
			keys := rng.Perm(n)[:k]
			olds := make([]tagged, k)
			news := make([]tagged, k)
			for i, key := range keys {
				olds[i] = pop[key]
				news[i] = tagged{rng.Intn(values), key}
			}
			g := tr.Gen()
			tr.Repair(keys, olds, news)
			for i, key := range keys {
				pop[key] = news[i]
			}
			if moved := tr.Gen() != g; moved != (k > 0) {
				t.Fatalf("trial %d round %d: Repair of %d keys moved Gen: %v", trial, round, k, moved)
			}
			checkKeyed(t, tr, pop, "Repair")

			if n == 0 || round%5 != 4 {
				continue
			}
			// A valid prefix followed by one bad delta: the prefix's dead
			// marks must be undone when the bad one panics.
			keys = rng.Perm(n)[:1+rng.Intn(n)]
			olds, news = olds[:0], news[:0]
			for _, key := range keys {
				olds = append(olds, pop[key])
				news = append(news, tagged{rng.Intn(values), key})
			}
			last := len(keys) - 1
			g = tr.Gen()
			mustPanic(t, "a stale old", func() {
				bad := append([]tagged(nil), olds...)
				bad[last].v += values
				tr.Repair(keys, bad, news)
			})
			if len(keys) > 1 {
				mustPanic(t, "a repeated key", func() {
					bad := append([]int(nil), keys...)
					bad[last] = bad[0]
					tr.Repair(bad, olds, news)
				})
			}
			for _, out := range []int{-1, n} {
				mustPanic(t, "a key out of range", func() {
					bad := append([]int(nil), keys...)
					bad[last] = out
					tr.Repair(bad, olds, news)
				})
			}
			mustPanic(t, "mismatched lengths", func() { tr.Repair(keys, olds[:last], news) })
			if tr.Gen() != g {
				t.Fatalf("trial %d round %d: a panicking Repair bumped Gen", trial, round)
			}
			checkKeyed(t, tr, pop, "after a panicking Repair")
		}
	}
}

// TestTrackerUnequalLengths: a repair batch whose keys, olds and news
// differ in length panics and leaves the tracker unchanged; the population
// grows through Append, whose keys later repairs address.
func TestTrackerUnequalLengths(t *testing.T) {
	tr := NewTracker(OrderedCmp[int](), []int{1, 2, 3})
	g := tr.Gen()
	mustPanic(t, "more news than olds", func() { tr.Repair([]int{1}, []int{2}, []int{7, 8}) })
	mustPanic(t, "more olds than keys", func() { tr.Repair([]int{1}, []int{2, 3}, []int{7}) })
	if want := OfInts(1, 2, 3); !tr.View().Equal(want) || tr.Gen() != g {
		t.Fatalf("a panicking Repair changed the tracker: %v (gen %d → %d)", tr.View(), g, tr.Gen())
	}
	tr.Append([]int{8}) // grow: key 3
	tr.Repair([]int{1, 3}, []int{2, 8}, []int{0, 9})
	if want := OfInts(0, 1, 3, 9); !tr.View().Equal(want) {
		t.Fatalf("grow then repair: %v != %v", tr.View(), want)
	}
	tr.Repair(nil, nil, nil) // no-op
	if want := OfInts(0, 1, 3, 9); !tr.View().Equal(want) {
		t.Fatalf("no-op changed view: %v", tr.View())
	}
}

// TestTrackerPanicsOnMissingOld: the staged old must be the key's tracked
// value — one not present at all, or present but held by another key,
// panics and leaves the view as it was.
func TestTrackerPanicsOnMissingOld(t *testing.T) {
	tr := NewTracker(OrderedCmp[int](), []int{1, 2})
	mustPanic(t, "Repair of a value not present", func() { tr.Repair([]int{0}, []int{9}, []int{1}) })
	mustPanic(t, "Repair of another key's value", func() { tr.Repair([]int{0}, []int{2}, []int{1}) })
	if want := OfInts(1, 2); !tr.View().Equal(want) {
		t.Fatalf("a panicking Repair changed the view: %v", tr.View())
	}
}

func TestViewAliasesWithoutCopy(t *testing.T) {
	cmp := OrderedCmp[int]()
	backing := []int{1, 2, 3}
	v := View(cmp, backing)
	if !v.Equal(OfInts(1, 2, 3)) {
		t.Fatalf("view = %v", v)
	}
	backing[0] = 0 // caller-visible mutation shows through: zero-copy
	if v.At(0) != 0 {
		t.Fatal("View copied its input; it must alias")
	}
}

// TestTrackerGen pins the generation contract the cached monitor verdict
// relies on: every Reset, non-empty Repair and non-empty Append bumps
// Gen; an empty Repair or Append changes nothing and leaves it alone.
func TestTrackerGen(t *testing.T) {
	cmp := OrderedCmp[int]()
	tr := NewTracker(cmp, []int{3, 1, 2})
	g := tr.Gen()
	step := func(what string, mutate func(), bump bool) {
		t.Helper()
		mutate()
		switch got := tr.Gen(); {
		case bump && got == g:
			t.Fatalf("%s did not bump Gen (still %d)", what, got)
		case !bump && got != g:
			t.Fatalf("%s bumped Gen %d → %d", what, g, got)
		}
		g = tr.Gen()
	}
	step("Repair(nil, nil, nil)", func() { tr.Repair(nil, nil, nil) }, false)
	step("Repair({}, {}, {})", func() { tr.Repair([]int{}, []int{}, []int{}) }, false)
	step("Repair", func() { tr.Repair([]int{1}, []int{1}, []int{5}) }, true)
	step("value-preserving Repair", func() { tr.Repair([]int{1}, []int{5}, []int{5}) }, true)
	step("Append", func() { tr.Append([]int{7}) }, true)
	step("Append(nil)", func() { tr.Append(nil) }, false)
	step("Reset", func() { tr.Reset(cmp, []int{4}) }, true)
}
