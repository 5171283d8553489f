package multiset

import (
	"math/rand"
	"testing"
)

// TestTrackerMatchesRebuild drives a Tracker through random replacement
// batches and checks after every batch that the incremental snapshot
// equals a from-scratch New over the live population.
func TestTrackerMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cmp := OrderedCmp[int]()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		pop := make([]int, n)
		for i := range pop {
			pop[i] = rng.Intn(10) // dense values: plenty of duplicates
		}
		tr := NewTracker(cmp, pop)
		for step := 0; step < 30; step++ {
			k := 1 + rng.Intn(n)
			idxs := rng.Perm(n)[:k]
			olds := make([]int, k)
			news := make([]int, k)
			for j, idx := range idxs {
				olds[j] = pop[idx]
				news[j] = rng.Intn(10)
				pop[idx] = news[j]
			}
			tr.Replace(olds, news)
			if want := New(cmp, pop...); !tr.View().Equal(want) {
				t.Fatalf("trial %d step %d: view %v != rebuild %v", trial, step, tr.View(), want)
			}
			if tr.Len() != n {
				t.Fatalf("len drifted: %d != %d", tr.Len(), n)
			}
		}
	}
}

func TestTrackerUnequalLengths(t *testing.T) {
	cmp := OrderedCmp[int]()
	tr := NewTracker(cmp, []int{1, 2, 3})
	tr.Replace([]int{2}, []int{7, 8}) // grow
	if want := OfInts(1, 3, 7, 8); !tr.View().Equal(want) {
		t.Fatalf("grow: %v != %v", tr.View(), want)
	}
	tr.Replace([]int{7, 8}, []int{0}) // shrink
	if want := OfInts(0, 1, 3); !tr.View().Equal(want) {
		t.Fatalf("shrink: %v != %v", tr.View(), want)
	}
	tr.Replace(nil, nil) // no-op
	if want := OfInts(0, 1, 3); !tr.View().Equal(want) {
		t.Fatalf("no-op changed view: %v", tr.View())
	}
}

func TestTrackerPanicsOnMissingOld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replace of a value not present must panic")
		}
	}()
	NewTracker(OrderedCmp[int](), []int{1, 2}).Replace([]int{9}, []int{1})
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
// relies on: every Reset, non-empty Replace and non-empty Append bumps
// Gen; an empty Replace changes nothing and leaves it alone.
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
	step("Replace(nil, nil)", func() { tr.Replace(nil, nil) }, false)
	step("Replace({}, {})", func() { tr.Replace([]int{}, []int{}) }, false)
	step("Replace", func() { tr.Replace([]int{1}, []int{5}) }, true)
	step("value-preserving Replace", func() { tr.Replace([]int{5}, []int{5}) }, true)
	step("Append", func() { tr.Append([]int{7}) }, true)
	step("Append(nil)", func() { tr.Append(nil) }, false)
	step("Reset", func() { tr.Reset(cmp, []int{4}) }, true)
}
