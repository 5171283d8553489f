// Package multiset implements the finite multisets ("bags") over which the
// paper's distributed functions f operate.
//
// In "Self-Similar Algorithms for Dynamic Distributed Systems" (Chandy &
// Charpentier, ICDCS 2007) the state of a group B of agents is the multiset
// S_B = {Sa | a ∈ B} of the states of its members, and the union of the
// states of disjoint groups is multiset union: S_{B∪C} = S_B ∪ S_C. All of
// the paper's machinery — super-idempotent functions, the conservation law,
// variant functions in summation form — is stated in terms of multisets, so
// this package is the foundation of everything else in the repository.
//
// A Multiset[T] is an immutable, canonically sorted bag of values of an
// arbitrary element type T. Because agent states range from plain integers
// to (index, value) pairs and convex-hull point sets, the element type is
// not required to be comparable in the Go sense; instead every multiset
// carries a total-order comparison function, which makes equality,
// canonical printing, and deterministic iteration possible for any T.
package multiset

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/bitset"
)

// Cmp is a three-way comparison over element type T. It must define a total
// order: negative when a < b, zero when a == b, positive when a > b.
// Multiset equality is defined as "cmp reports zero elementwise on the
// canonical sorted forms", so cmp also decides which values are identical.
type Cmp[T any] func(a, b T) int

// Multiset is an immutable bag of values of type T, held in canonical
// (sorted) order. The zero value is an empty multiset with a nil comparison
// function; it is usable with Len, Elements and Union against another
// multiset that supplies a comparison function, but New should normally be
// used so the order is explicit.
type Multiset[T any] struct {
	cmp Cmp[T]
	// elems is sorted by cmp. Multisets built by New/FromSorted/Union/…
	// own their storage; the exceptions are View and Tracker.View, which
	// deliberately alias caller- or tracker-owned buffers for the engine
	// hot path — such views are invalidated by the next mutation of the
	// underlying buffer (Tracker.Repair recycles its old array as merge
	// scratch) and must not be retained across it.
	elems []T
}

// New builds a multiset from the given elements using cmp as the total
// order. The input slice is copied; the caller may reuse it afterwards.
func New[T any](cmp Cmp[T], elems ...T) Multiset[T] {
	own := make([]T, len(elems))
	copy(own, elems)
	sort.SliceStable(own, func(i, j int) bool { return cmp(own[i], own[j]) < 0 })
	return Multiset[T]{cmp: cmp, elems: own}
}

// FromSorted builds a multiset from a slice that is already sorted by cmp.
// It copies the slice. It panics if the slice is not sorted, since a
// non-canonical multiset would silently break equality everywhere else.
func FromSorted[T any](cmp Cmp[T], sorted []T) Multiset[T] {
	for i := 1; i < len(sorted); i++ {
		if cmp(sorted[i-1], sorted[i]) > 0 {
			panic("multiset.FromSorted: input not sorted")
		}
	}
	own := make([]T, len(sorted))
	copy(own, sorted)
	return Multiset[T]{cmp: cmp, elems: own}
}

// Len reports the cardinality of the multiset (counting multiplicity).
func (m Multiset[T]) Len() int { return len(m.elems) }

// IsEmpty reports whether the multiset has no elements.
func (m Multiset[T]) IsEmpty() bool { return len(m.elems) == 0 }

// Cmp returns the comparison function the multiset was built with.
func (m Multiset[T]) Cmp() Cmp[T] { return m.cmp }

// At returns the i-th element in canonical (sorted) order.
func (m Multiset[T]) At(i int) T { return m.elems[i] }

// Elements returns a copy of the elements in canonical order. Mutating the
// returned slice does not affect the multiset.
func (m Multiset[T]) Elements() []T {
	out := make([]T, len(m.elems))
	copy(out, m.elems)
	return out
}

// Min returns the least element under the multiset's order. The boolean is
// false when the multiset is empty.
func (m Multiset[T]) Min() (T, bool) {
	if len(m.elems) == 0 {
		var zero T
		return zero, false
	}
	return m.elems[0], true
}

// Max returns the greatest element under the multiset's order. The boolean
// is false when the multiset is empty.
func (m Multiset[T]) Max() (T, bool) {
	if len(m.elems) == 0 {
		var zero T
		return zero, false
	}
	return m.elems[len(m.elems)-1], true
}

// Count reports how many elements compare equal to v.
func (m Multiset[T]) Count(v T) int {
	lo := sort.Search(len(m.elems), func(i int) bool { return m.cmp(m.elems[i], v) >= 0 })
	hi := sort.Search(len(m.elems), func(i int) bool { return m.cmp(m.elems[i], v) > 0 })
	return hi - lo
}

// Contains reports whether at least one element compares equal to v.
func (m Multiset[T]) Contains(v T) bool { return m.Count(v) > 0 }

// Add returns a new multiset with v added (multiplicity increases by one).
func (m Multiset[T]) Add(v T) Multiset[T] {
	out := make([]T, 0, len(m.elems)+1)
	i := sort.Search(len(m.elems), func(i int) bool { return m.cmp(m.elems[i], v) > 0 })
	out = append(out, m.elems[:i]...)
	out = append(out, v)
	out = append(out, m.elems[i:]...)
	return Multiset[T]{cmp: m.cmp, elems: out}
}

// mergeCmp resolves the comparison function for a binary operation on m
// and other, preferring m's. Operations on two zero-value (nil-cmp)
// multisets are well defined only while no elements need comparing; the
// first operation that would actually have to compare panics with a clear
// message instead of silently producing a poisoned nil-cmp multiset that
// crashes far from the bug (inside sort.Search, rounds later).
func (m Multiset[T]) mergeCmp(other Multiset[T], op string) Cmp[T] {
	cmp := m.cmp
	if cmp == nil {
		cmp = other.cmp
	}
	if cmp == nil && (len(m.elems) > 0 || len(other.elems) > 0) {
		panic("multiset." + op + ": both operands have a nil comparison function (zero-value Multiset); build operands with New/FromSorted/View")
	}
	return cmp
}

// mergeAppend appends the sorted merge of a and b to dst — the shared
// core of Union, UnionInto, and Merger.Union. Ties emit a's element
// first, which is what makes every union in this package stable by
// operand order. dst must not alias a or b.
func mergeAppend[T any](dst []T, cmp Cmp[T], a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Union returns the multiset union m ∪ other (multiplicities add). This is
// the bold-∪ of the paper: the state of a group B∪C is S_B ∪ S_C.
//
// The zero value is a usable empty operand: the result adopts the other
// operand's comparison function. A union of two non-empty nil-cmp
// multisets panics early with a descriptive message.
func (m Multiset[T]) Union(other Multiset[T]) Multiset[T] {
	cmp := m.mergeCmp(other, "Union")
	out := mergeAppend(make([]T, 0, len(m.elems)+len(other.elems)), cmp, m.elems, other.elems)
	return Multiset[T]{cmp: cmp, elems: out}
}

// UnionInto is Union into a caller-owned buffer: the merged elements are
// appended to buf[:0] (grown as needed) and the result is a zero-copy
// view of it. The returned buffer must be passed back in (or otherwise
// retained) to be reused; the view is invalidated by the next mutation
// of the buffer. Neither operand may alias buf. It is the two-operand
// sibling of Merger for callers that repeatedly merge exactly two
// multisets and must not allocate in steady state.
func (m Multiset[T]) UnionInto(other Multiset[T], buf []T) (Multiset[T], []T) {
	cmp := m.mergeCmp(other, "UnionInto")
	out := mergeAppend(buf[:0], cmp, m.elems, other.elems)
	return Multiset[T]{cmp: cmp, elems: out}, out
}

// Equal reports multiset equality: same cardinality and pairwise-equal
// canonical forms under the comparison function. Two empty multisets are
// equal regardless of comparison functions (so the zero value is safe to
// compare); comparing two non-empty nil-cmp multisets panics early with a
// descriptive message.
func (m Multiset[T]) Equal(other Multiset[T]) bool {
	if len(m.elems) != len(other.elems) {
		return false
	}
	if len(m.elems) == 0 {
		return true
	}
	cmp := m.mergeCmp(other, "Equal")
	for i := range m.elems {
		if cmp(m.elems[i], other.elems[i]) != 0 {
			return false
		}
	}
	return true
}

// Map applies fn to every element and returns the resulting multiset
// (re-canonicalized, since fn need not be monotone).
func (m Multiset[T]) Map(fn func(T) T) Multiset[T] {
	out := make([]T, len(m.elems))
	for i, v := range m.elems {
		out[i] = fn(v)
	}
	return New(m.cmp, out...)
}

// Filter returns the multiset of elements for which keep reports true.
func (m Multiset[T]) Filter(keep func(T) bool) Multiset[T] {
	out := make([]T, 0, len(m.elems))
	for _, v := range m.elems {
		if keep(v) {
			out = append(out, v)
		}
	}
	return Multiset[T]{cmp: m.cmp, elems: out}
}

// ForEach calls fn on every element in canonical order.
func (m Multiset[T]) ForEach(fn func(T)) {
	for _, v := range m.elems {
		fn(v)
	}
}

// Format renders the multiset as {e0, e1, ...} using the supplied element
// formatter, in canonical order.
func (m Multiset[T]) Format(elem func(T) string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range m.elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(elem(v))
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the multiset with fmt's default %v formatting per element.
func (m Multiset[T]) String() string {
	return m.Format(func(v T) string { return fmt.Sprintf("%v", v) })
}

// View wraps an already-sorted slice as a Multiset WITHOUT copying it. The
// caller promises that the slice is sorted by cmp and will not be mutated
// for as long as the returned multiset (or anything derived from it that
// aliases it) is in use. It exists for engine hot paths that maintain their
// own sorted scratch buffers and need a multiset view with zero
// allocation; everything else should use New or FromSorted.
func View[T any](cmp Cmp[T], sorted []T) Multiset[T] {
	return Multiset[T]{cmp: cmp, elems: sorted}
}

// Tracker maintains the canonically sorted multiset of a keyed population
// of values that mutates in small increments — the engine-side
// "incremental snapshot". Every element carries a key: the index of its
// agent within the tracked block (NewTracker and Reset key elements by
// input position, Append assigns the next keys). The tracker keeps, next
// to the sorted values, owner[i] (the key of the i-th sorted element) and
// slot[key] (where that key's element sits), so a repair never searches
// for a value it already knows the position of.
//
// Ties are ordered by key, which is exactly the order NewTracker's stable
// sort gives them: after any sequence of repairs the view is element for
// element the one a fresh NewTracker over the positional states would
// build. Where ms.New costs an allocation plus an O(n log n) sort per
// call, Repair costs O(k log k) to sort the k new values, O(k log(n/k))
// comparisons to place them, and one index-only merge pass over the n
// slots, allocating nothing once its scratch has grown to a steady state.
type Tracker[T any] struct {
	cmp   Cmp[T]
	elems []T     // sorted by (cmp, key)
	owner []int32 // owner[i] is the key of elems[i]
	slot  []int32 // slot[key] is the index of key's element in elems
	// Reusable repair scratch: the removed slots (all clear between
	// repairs), the keyed new values sorted by (cmp, key), their insertion
	// positions, and the merge output (swapped with elems and owner).
	dead     bitset.Set
	ins      []keyed[T]
	insPos   []int32
	mergeBuf []T
	ownerBuf []int32
	// byKey orders keyed values by (cmp, key), and byPos orders the keys
	// of the population being loaded (loadSrc) the same way; both are built
	// once per tracker, so neither a repair nor a Reset allocates a closure.
	byKey   func(a, b keyed[T]) int
	byPos   func(a, b int32) int
	loadSrc []T
	// gen counts the mutations of elems (see Gen).
	gen uint64
}

// keyed is a tracked value with its key.
type keyed[T any] struct {
	v T
	k int32
}

// NewTracker builds a Tracker over a copy of the given population; the
// element at input position i gets key i.
func NewTracker[T any](cmp Cmp[T], elems []T) *Tracker[T] {
	t := &Tracker[T]{}
	t.byKey = func(a, b keyed[T]) int {
		if c := t.cmp(a.v, b.v); c != 0 {
			return c
		}
		return int(a.k) - int(b.k)
	}
	t.byPos = func(a, b int32) int {
		if c := t.cmp(t.loadSrc[a], t.loadSrc[b]); c != 0 {
			return c
		}
		return int(a) - int(b)
	}
	t.load(cmp, elems)
	return t
}

// Reset rebinds the tracker to a fresh population, reusing its sorted
// buffer and scratch (they grow to the new size only if needed). The
// resulting state is identical to NewTracker(cmp, elems) — same keys,
// same canonical order — so a tracker handed from one run to the next
// (the scenario-sweep warm-engine contract) is observationally a new
// one. Any views of the previous population are invalidated.
func (t *Tracker[T]) Reset(cmp Cmp[T], elems []T) {
	t.gen++
	t.load(cmp, elems)
}

// load sorts elems into the tracker, keyed by input position: owner
// starts as the identity and is sorted by (cmp, key) in place, so a load
// needs no buffer beyond the tracker's own arrays.
func (t *Tracker[T]) load(cmp Cmp[T], elems []T) {
	n := len(elems)
	if n > math.MaxInt32 {
		panic("multiset.Tracker: population exceeds the int32 key space")
	}
	t.cmp = cmp
	t.owner = slices.Grow(t.owner[:0], n)[:n]
	for i := range t.owner {
		t.owner[i] = int32(i)
	}
	t.loadSrc = elems
	slices.SortFunc(t.owner, t.byPos)
	t.loadSrc = nil
	t.elems = slices.Grow(t.elems[:0], n)
	t.slot = slices.Grow(t.slot[:0], n)[:n]
	for i, k := range t.owner {
		t.elems = append(t.elems, elems[k])
		t.slot[k] = int32(i)
	}
	if t.dead.Len() < n {
		t.dead = bitset.New(n)
	}
}

// Len reports the tracked population size.
func (t *Tracker[T]) Len() int { return len(t.elems) }

// Gen returns the tracker's generation: a counter bumped by every Reset
// and every non-empty Repair or Append. Two equal readings bracket no
// mutation, so a verdict computed on the view at one reading still
// describes the view at the other — the license the round loop's cached
// monitor verdict relies on. A non-empty Repair bumps it even when the
// multiset comes out unchanged; that costs a recomputation, never a stale
// verdict.
func (t *Tracker[T]) Gen() uint64 { return t.gen }

// View returns the current multiset as a zero-copy view. The view is
// invalidated by the next Repair or Append; callers that retain it across
// mutations must copy it first (Multiset.Elements or ms.New).
func (t *Tracker[T]) View() Multiset[T] { return Multiset[T]{cmp: t.cmp, elems: t.elems} }

// Repair sets the value of every key in keys from olds[i] to news[i]
// (parallel slices, not mutated), repairing sorted order incrementally:
// the removed slots are found through slot and marked dead, only the new
// values are sorted, a galloping search places them, and one merge pass
// rewrites elems, owner and slot. It panics — leaving the tracker
// unchanged — when the slices differ in length, a key is out of range or
// repeats, or the tracked value of a key is not cmp-equal to its staged
// old: a corrupted snapshot would silently poison every downstream
// monitor, so a delta staged for the wrong agent fails loudly.
//
//det:hotpath
func (t *Tracker[T]) Repair(keys []int, olds, news []T) {
	if len(olds) != len(keys) || len(news) != len(keys) {
		panic("multiset.Tracker.Repair: keys, olds and news differ in length")
	}
	if len(keys) == 0 {
		return
	}
	for i, key := range keys {
		if key < 0 || key >= len(t.slot) {
			t.unmark(keys[:i])
			panic("multiset.Tracker.Repair: key out of range")
		}
		s := int(t.slot[key])
		if t.dead.Get(s) {
			t.unmark(keys[:i])
			panic("multiset.Tracker.Repair: key repeats")
		}
		if t.cmp(t.elems[s], olds[i]) != 0 {
			t.unmark(keys[:i])
			panic("multiset.Tracker.Repair: old value is not the key's tracked value")
		}
		t.dead.Set(s)
	}
	t.gen++
	t.ins = t.ins[:0]
	for i, key := range keys {
		t.ins = append(t.ins, keyed[T]{v: news[i], k: int32(key)})
	}
	t.merge(len(keys))
}

// unmark clears the dead marks of keys validated before a Repair panics.
func (t *Tracker[T]) unmark(keys []int) {
	for _, key := range keys {
		t.dead.Clear(int(t.slot[key]))
	}
}

// Append inserts the given values into the tracked multiset under the
// next keys (Len(), Len()+1, …) — the population-growth path: joining
// agents extend the bag without touching any existing element or key, so
// positional bookkeeping keyed to existing agents stays valid. Sorted
// order is repaired by the same placement and merge as Repair.
func (t *Tracker[T]) Append(vals []T) {
	if len(vals) == 0 {
		return
	}
	base := len(t.slot)
	if base+len(vals) > math.MaxInt32 {
		panic("multiset.Tracker.Append: population exceeds the int32 key space")
	}
	t.gen++
	t.ins = t.ins[:0]
	for i, v := range vals {
		t.ins = append(t.ins, keyed[T]{v: v, k: int32(base + i)})
		t.slot = append(t.slot, -1) // rewritten by merge
	}
	t.merge(0)
	if t.dead.Len() < len(t.elems) {
		t.dead = bitset.New(len(t.elems) + len(t.elems)/4)
	}
}

// merge folds the staged t.ins into the sorted buffer, dropping the
// removed slots marked dead and clearing their marks. Insertion positions are
// lower bounds in the ORIGINAL coordinates (dead slots still hold their
// old values, so the order they are searched in is intact); the merge
// then compares indices only, copying the unchanged runs between change
// points in bulk and rewriting slot only for runs that moved.
//
//det:hotpath
func (t *Tracker[T]) merge(removed int) {
	slices.SortFunc(t.ins, t.byKey)
	t.insPos = t.insPos[:0]
	pos := 0
	for _, e := range t.ins {
		pos = t.gallop(pos, e.v, e.k)
		t.insPos = append(t.insPos, int32(pos))
	}
	size := len(t.elems) - removed + len(t.ins)
	t.mergeBuf = slices.Grow(t.mergeBuf[:0], size)
	t.ownerBuf = slices.Grow(t.ownerBuf[:0], size)
	src, ni := 0, 0
	for wi, w := range t.dead.Words() {
		for w != 0 {
			d := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			ni = t.emit(src, d, ni)
			src = d + 1
			t.dead.Clear(d)
		}
	}
	t.emit(src, len(t.elems), ni)
	t.elems, t.mergeBuf = t.mergeBuf, t.elems[:0]
	t.owner, t.ownerBuf = t.ownerBuf, t.owner[:0]
}

// emit appends elems[src:end] to the merge output, interleaving the
// staged values whose insertion position is in [src, end] (a value
// placed at end goes before elems[end], which is dead or past the end),
// and returns the index of the first staged value not yet emitted.
func (t *Tracker[T]) emit(src, end, ni int) int {
	for ; ni < len(t.ins) && int(t.insPos[ni]) <= end; ni++ {
		p := int(t.insPos[ni])
		t.copyRun(src, p)
		src = p
		e := t.ins[ni]
		t.slot[e.k] = int32(len(t.mergeBuf))
		t.mergeBuf = append(t.mergeBuf, e.v)
		t.ownerBuf = append(t.ownerBuf, e.k)
	}
	t.copyRun(src, end)
	return ni
}

// copyRun appends the live run elems[lo:hi] and its keys to the merge
// output, rewriting slot only when the run moved.
func (t *Tracker[T]) copyRun(lo, hi int) {
	if lo >= hi {
		return
	}
	at := len(t.mergeBuf)
	t.mergeBuf = append(t.mergeBuf, t.elems[lo:hi]...)
	t.ownerBuf = append(t.ownerBuf, t.owner[lo:hi]...)
	if at != lo {
		for j, k := range t.owner[lo:hi] {
			t.slot[k] = int32(at + j)
		}
	}
}

// gallop returns the lower bound of (v, k) in the (cmp, key) order of
// elems, given that it is at least from: it probes from, from+1, from+3,
// from+7, … until it overshoots, then binary-searches the last gap. For
// k sorted values placed left to right over n slots this costs
// O(k log(n/k)) comparisons in all, against O(k log n) for k full-range
// searches.
//
//det:hotpath
func (t *Tracker[T]) gallop(from int, v T, k int32) int {
	n := len(t.elems)
	if from >= n || !t.before(from, v, k) {
		return from
	}
	lo, hi := from, n // before(lo) holds; the bound is in (lo, hi]
	for step := 1; ; step <<= 1 {
		probe := lo + step
		if probe >= n {
			break
		}
		if !t.before(probe, v, k) {
			hi = probe
			break
		}
		lo = probe
	}
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.before(mid, v, k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// before reports whether elems[j] precedes (v, k) in the (cmp, key) order.
func (t *Tracker[T]) before(j int, v T, k int32) bool {
	c := t.cmp(t.elems[j], v)
	return c < 0 || c == 0 && t.owner[j] < k
}

// Merger performs repeated P-way multiset unions into reusable merge
// buffers — the reduction step of a sharded state layout, where the
// global snapshot S = S_1 ∪ … ∪ S_P is rebuilt from per-shard sorted
// views every round. Where Union allocates a fresh slice per call, a
// Merger owns two ping-pong output buffers and the per-level segment
// scratch for the lifetime of a run and allocates nothing once they have
// grown to a steady state. The merge is a bottom-up tournament of 2-way
// merges — O(total · log P), so the sequential reduction stays flat as
// the shard count grows with the core count.
type Merger[T any] struct {
	cmp        Cmp[T]
	bufA, bufB []T
	cur, next  [][]T
}

// NewMerger builds a Merger using cmp as the total order.
func NewMerger[T any](cmp Cmp[T]) *Merger[T] {
	return &Merger[T]{cmp: cmp}
}

// Reset rebinds the merger to a new total order while keeping its
// ping-pong buffers and segment scratch warm — for mergers that outlive
// one run (the sharded layout handed between sweep cells), where the
// comparison function may change with the problem but the buffer
// capacity is the part worth keeping.
func (g *Merger[T]) Reset(cmp Cmp[T]) { g.cmp = cmp }

// Union merges the given multisets (each sorted by the Merger's cmp) into
// the internal buffers and returns a zero-copy view of the result. Ties
// are emitted lowest-operand-first (the tournament pairs adjacent
// operands and mergeAppend is left-stable), so the output is
// deterministic. The view is invalidated by the next Union call; callers
// that retain it must copy it first. Operands must not alias the
// Merger's buffers (i.e. must not be a previous Union result).
//
// A zero-value Merger (nil comparison function) adopts the first
// operand's comparison function, mirroring the zero-value contract of
// Multiset.Union; if no operand can supply one and elements must be
// merged, Union panics early with a descriptive message rather than
// crashing on the nil cmp deep inside the merge. A nil *Merger panics
// descriptively too.
func (g *Merger[T]) Union(sets ...Multiset[T]) Multiset[T] {
	if g == nil {
		panic("multiset.Merger.Union: nil *Merger receiver; build the merger with NewMerger")
	}
	if g.cmp == nil {
		for _, s := range sets {
			if s.cmp != nil {
				g.cmp = s.cmp
				break
			}
		}
		if g.cmp == nil {
			for _, s := range sets {
				if len(s.elems) > 0 {
					panic("multiset.Merger.Union: nil comparison function (zero-value Merger) and no operand supplies one; build the merger with NewMerger")
				}
			}
		}
	}
	cur := g.cur[:0]
	for _, s := range sets {
		if len(s.elems) > 0 {
			cur = append(cur, s.elems)
		}
	}
	switch len(cur) {
	case 0:
		g.cur = cur
		return Multiset[T]{cmp: g.cmp, elems: g.bufA[:0]}
	case 1:
		// Copy so the result honors the "operands never alias the
		// buffers" contract for the NEXT Union.
		g.bufA = append(g.bufA[:0], cur[0]...)
		g.cur = cur[:0]
		return Multiset[T]{cmp: g.cmp, elems: g.bufA}
	}
	out, spare := g.bufA, g.bufB
	for len(cur) > 1 {
		// Invariant: every segment this level PRODUCES — merged pairs and
		// the copied odd tail alike — lives in out, so the next level's
		// inputs never alias the buffer it writes to (spare).
		out = out[:0]
		next := g.next[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			start := len(out)
			out = mergeAppend(out, g.cmp, cur[i], cur[i+1])
			next = append(next, out[start:len(out):len(out)])
		}
		if len(cur)%2 == 1 {
			start := len(out)
			out = append(out, cur[len(cur)-1]...)
			next = append(next, out[start:len(out):len(out)])
		}
		g.next = cur[:0] // recycle the level scratch
		cur = next
		out, spare = spare, out
	}
	g.cur = cur[:0]
	g.bufA, g.bufB = out, spare // spare holds the result; out is dead
	return Multiset[T]{cmp: g.cmp, elems: cur[0]}
}

// OrderedCmp returns a Cmp for any ordered primitive type.
func OrderedCmp[T int | int8 | int16 | int32 | int64 | uint | uint8 | uint16 | uint32 | uint64 | float32 | float64 | string]() Cmp[T] {
	return func(a, b T) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
}

// OfInts builds a multiset of ints with the natural order. It is the most
// common constructor in the paper's examples (§4.1–§4.3).
func OfInts(vals ...int) Multiset[int] { return New(OrderedCmp[int](), vals...) }

// OfFloats builds a multiset of float64s with the natural order.
func OfFloats(vals ...float64) Multiset[float64] { return New(OrderedCmp[float64](), vals...) }

// SumInts returns the sum of an integer multiset. Helper for the paper's
// §4.2 sum problem and the summation-form variant functions of (8).
func SumInts(m Multiset[int]) int {
	total := 0
	m.ForEach(func(v int) { total += v })
	return total
}

// SumFloats returns the sum of a float multiset.
func SumFloats(m Multiset[float64]) float64 {
	total := 0.0
	m.ForEach(func(v float64) { total += v })
	return total
}
