// Package selfsim is a Go implementation of "Self-Similar Algorithms for
// Dynamic Distributed Systems" (K. Mani Chandy and Michel Charpentier,
// ICDCS 2007).
//
// A dynamic distributed system is a set of agents operating in an
// environment that may disable agents and communication links at any time
// — partitions, churn, power loss, adversarial jamming. A self-similar
// algorithm is one in which every group of agents that can still
// communicate behaves exactly as if the system consisted of that group
// alone: partitions never produce wrong answers, only smaller instances of
// the same computation, and the system speeds up or slows down with the
// resources the environment grants.
//
// The paper's methodology casts "compute f(S(0))" as constrained
// optimization — conserve a super-idempotent function f, strictly decrease
// a well-founded variant h — and this package packages that methodology as
// a library:
//
//   - Problems: Min, Max, Sum, Average, GCD, MinPair, KSmallest, Sorting,
//     Hull (every example in the paper's §4 plus natural extensions), each
//     exposing its f, its variant h, and concrete group/pairwise steps.
//   - Environments: static, random edge churn, power loss, partitions
//     that heal, fair and unfair adversaries, round-robin scheduling, and
//     random-waypoint mobility.
//   - Engines: a round-based simulator matching the paper's execution
//     model exactly (with built-in runtime verification of the
//     conservation law and the D-step discipline), and an asynchronous
//     message-passing runtime that multiplexes agents onto sharded event
//     loops. Both are built on one
//     shared engine core (monitors, convergence detection, deterministic
//     seeding, worker pool) with an allocation-free round hot path; see
//     DESIGN.md for the architecture.
//   - Checkers: machine verification of idempotence, super-idempotence,
//     the local-to-global properties, and exhaustive model checking of
//     the paper's proof obligations on small instances.
//
// # Quick start
//
//	g := selfsim.Ring(8)
//	environment := selfsim.EdgeChurn(g, 0.3) // each link up 30% of the time
//	res, err := selfsim.Simulate[int](selfsim.NewMin(), environment,
//	    []int{9, 4, 7, 1, 8, 2, 6, 5}, selfsim.Options{Seed: 1, StopOnConverged: true})
//	// res.Converged == true; res.Final is all 1s; res.Round tells how long
//	// the environment made the agents take.
//
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and results.
package selfsim

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mc"
	ms "repro/internal/multiset"
	"repro/internal/problems"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// --- Core abstractions (the paper's f, h, D) ---

// Problem bundles a distributed function f, its variant h, and concrete
// group/pairwise refinements of the optimization relation D. See
// core.Problem for the full contract.
type Problem[T any] = core.Problem[T]

// Function is the paper's distributed function f over multisets of agent
// states.
type Function[T any] = core.Function[T]

// Variant is the paper's variant (objective) function h.
type Variant[T any] = core.Variant[T]

// Multiset is an immutable bag of agent states — the domain of f and h.
type Multiset[T any] = ms.Multiset[T]

// Requirement describes the environment assumption a problem needs (§4).
type Requirement = core.Requirement

// Environment assumption constants.
const (
	AnyConnected  = core.AnyConnected
	CompleteGraph = core.CompleteGraph
	LineGraph     = core.LineGraph
)

// NewMultiset builds a multiset from elements and a three-way comparison.
func NewMultiset[T any](cmp func(a, b T) int, elems ...T) Multiset[T] {
	return ms.New(cmp, elems...)
}

// IntMultiset builds an integer multiset with the natural order.
func IntMultiset(vals ...int) Multiset[int] { return ms.OfInts(vals...) }

// --- Problems (§4 plus extensions) ---

// NewMin returns the §4.1 minimum-consensus problem.
func NewMin() Problem[int] { return problems.NewMin() }

// NewPartialMin returns minimum consensus with lazy steps (agents move to
// any value between their own and the group minimum), the slow end of the
// §4.1 algorithm class.
func NewPartialMin() Problem[int] { return &problems.Min{Partial: true} }

// NewMax returns maximum consensus for values strictly below bound.
func NewMax(bound int) Problem[int] { return problems.NewMax(bound) }

// NewSum returns the §4.2 sum problem (one agent ends with the total).
func NewSum() Problem[int] { return problems.NewSum() }

// NewAverage returns mean consensus over float64 states with the given
// convergence tolerance.
func NewAverage(tol float64) Problem[float64] { return problems.NewAverage(tol) }

// NewGCD returns gcd consensus over positive integers.
func NewGCD() Problem[int] { return problems.NewGCD() }

// Pair is the (smallest, second smallest) agent state of §4.3.
type Pair = problems.Pair

// NewMinPair returns the §4.3 generalized second-smallest problem for n
// agents with values strictly below bound. (The variant deviates from the
// paper's printed h, which is flawed; see internal/problems/minpair.go
// and EXPERIMENTS.md.)
func NewMinPair(n, bound int) Problem[Pair] { return problems.NewMinPair(n, bound) }

// InitialPairs builds the §4.3 initial state (x, x) per agent.
func InitialPairs(values []int) []Pair { return problems.InitialPairs(values) }

// KVec is the k-smallest vector agent state.
type KVec = problems.KVec

// NewKSmallest returns the k-smallest-values generalization for n agents
// with values strictly below bound.
func NewKSmallest(k, n, bound int) Problem[KVec] { return problems.NewKSmallest(k, n, bound) }

// InitialKVecs builds the k-smallest initial state per agent.
func InitialKVecs(k int, values []int) []KVec { return problems.InitialKVecs(k, values) }

// Item is the (index, value) agent state of the §4.4 sorting problem.
type Item = problems.Item

// NewSorting returns the §4.4 distributed sorting problem over the given
// distinct values (indexes 0..n−1).
func NewSorting(values []int) (Problem[Item], error) { return problems.NewSorting(values) }

// InitialItems builds the sorting initial state: agent i holds (i,
// values[i]).
func InitialItems(values []int) []Item { return problems.InitialItems(values) }

// Point is a point in the plane.
type Point = geom.Point

// Circle is a circle (center, radius).
type Circle = geom.Circle

// HullState is the §4.5 agent state: home coordinates plus current convex
// hull estimate.
type HullState = problems.HullState

// NewHull returns the §4.5 convex-hull problem over the given agent
// positions; the circumscribing circle is recovered with Circumcircle.
func NewHull(points []Point) Problem[HullState] { return problems.NewHull(points) }

// InitialHulls builds the hull initial state: each agent knows only its
// own position.
func InitialHulls(points []Point) []HullState { return problems.InitialHulls(points) }

// Circumcircle recovers the smallest circle containing all points from a
// converged hull state — the paper's original §4.5 goal.
func Circumcircle(s HullState) Circle { return problems.Circumcircle(s) }

// --- Communication graphs ---

// Graph is an undirected communication graph over agents.
type Graph = graph.Graph

// Line returns the linear graph 0—1—…—(n−1) (§4.4's assumption).
func Line(n int) *Graph { return graph.Line(n) }

// Ring returns the n-cycle.
func Ring(n int) *Graph { return graph.Ring(n) }

// Complete returns K_n (§4.2's assumption).
func Complete(n int) *Graph { return graph.Complete(n) }

// Star returns the star graph with hub 0.
func Star(n int) *Graph { return graph.Star(n) }

// Grid returns the rows×cols mesh.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// RandomConnected returns a connected G(n, p) (retrying / patching as
// needed), seeded deterministically.
func RandomConnected(n int, p float64, seed int64) *Graph {
	//lint:ignore detrand one-shot topology construction from a user-supplied seed before any engine runs; the golden-pinned graph family depends on this exact stdlib stream
	return graph.ConnectedErdosRenyi(n, p, rand.New(rand.NewSource(seed)))
}

// --- Environments (the adversary) ---

// Environment produces per-round edge/agent availability over a graph.
type Environment = env.Environment

// Static keeps everything up: the benign environment.
func Static(g *Graph) Environment { return env.NewStatic(g) }

// EdgeChurn makes each edge independently available with probability p
// per round.
func EdgeChurn(g *Graph, p float64) Environment { return env.NewEdgeChurn(g, p) }

// PowerLoss disables each agent independently with probability p per
// round.
func PowerLoss(g *Graph, p float64) Environment { return env.NewPowerLoss(g, p) }

// Partitioner alternates healthy phases with phases split into parts
// blocks.
func Partitioner(g *Graph, parts, healthyRounds, partitionRounds int) Environment {
	return env.NewPartitioner(g, parts, healthyRounds, partitionRounds)
}

// Adversary cuts cutFraction of edges each round, subject to a fairness
// window (every edge re-enabled at least once per window rounds);
// window ≤ 0 removes fairness and violates assumption (2).
func Adversary(g *Graph, cutFraction float64, window int) Environment {
	return env.NewAdversary(g, cutFraction, window)
}

// RoundRobin enables exactly one edge per round: the weakest fair
// environment.
func RoundRobin(g *Graph) Environment { return env.NewRoundRobin(g) }

// Mobile is random-waypoint mobility over the complete graph g: agents
// within radius can communicate.
func Mobile(g *Graph, radius, speed float64) (Environment, error) {
	return env.NewMobile(g, radius, speed)
}

// --- Engines ---

// Options configures a simulation run.
type Options = sim.Options

// Result reports a simulation run.
type Result[T any] = sim.Result[T]

// Mode selects component-wide or pairwise-gossip steps.
type Mode = sim.Mode

// Execution modes.
const (
	ComponentMode = sim.ComponentMode
	PairwiseMode  = sim.PairwiseMode
)

// DefaultParallelThreshold is the per-round group count at which the
// round engine fans group steps out to its persistent worker pool (sized
// to GOMAXPROCS). Options.ParallelThreshold overrides it; results are
// bit-for-bit identical either way, because every group steps on a
// private stream seeded in deterministic group order. See DESIGN.md §2.
const DefaultParallelThreshold = sim.DefaultParallelThreshold

// Simulate runs the round-based engine (the paper's execution model) for
// problem p over environment e from the given initial states.
func Simulate[T any](p Problem[T], e Environment, initial []T, opts Options) (*Result[T], error) {
	return sim.Run(p, e, initial, opts)
}

// AsyncOptions configures an asynchronous message-passing run.
type AsyncOptions = sched.Options

// AsyncResult reports an asynchronous run.
type AsyncResult[T any] = runtime.Result[T]

// SimulateAsync runs the asynchronous push-pull protocol of §4.5 over
// graph g on the sharded event-loop actor runtime: P worker goroutines
// multiplex all N agents, so 10⁵–10⁶-agent systems are feasible, and
// Workers=1 replays a seed exactly.
func SimulateAsync[T any](p Problem[T], g *Graph, initial []T, opts AsyncOptions) (*AsyncResult[T], error) {
	return sched.Run(p, g, initial, opts)
}

// DefaultAsyncOptions returns sensible asynchronous defaults: one worker
// per core, static links, 10s timeout.
func DefaultAsyncOptions(seed int64) AsyncOptions {
	return AsyncOptions{Seed: seed, LinkUpProbability: 1, Timeout: 10 * time.Second}
}

// --- Checkers (the §3 conditions as library calls) ---

// CheckSuperIdempotent draws trials random multiset pairs (X, Y) from gen
// and verifies f(X ∪ Y) = f(f(X) ∪ Y); it returns an error describing the
// first counterexample, or nil.
func CheckSuperIdempotent[T any](f Function[T], eq func(a, b Multiset[T]) bool,
	gen func(rng *rand.Rand) Multiset[T], trials int, seed int64) error {
	//lint:ignore detrand property-checker trial generation from a user-supplied seed; not on any engine path, and pinned counterexample traces depend on this stream
	v := core.CheckSuperIdempotent(f, eq, gen, gen, trials, rand.New(rand.NewSource(seed)))
	if v == nil {
		return nil
	}
	return v
}

// ExhaustiveSuperIdempotent verifies the singleton criterion (6) for every
// multiset over domain up to maxSize; it returns the first counterexample
// as an error, or nil.
func ExhaustiveSuperIdempotent[T any](f Function[T], eq func(a, b Multiset[T]) bool,
	domain []T, cmp func(a, b T) int, maxSize int) error {
	v := core.ExhaustiveSuperIdempotent(f, eq, domain, cmp, maxSize)
	if v == nil {
		return nil
	}
	return v
}

// ExactEqual returns the default multiset equality (cmp decides identity).
func ExactEqual[T any]() func(a, b Multiset[T]) bool { return core.ExactEqual[T]() }

// ModelCheckReport is the result of exhaustively checking the §3.7 proof
// obligations on a small instance.
type ModelCheckReport = mc.Report

// ModelCheck explores the full reachable state graph of problem p from
// the given initial states with groups formed over the edges of g (plus
// the whole-graph group), validating every transition as a D-step,
// checking that non-goal states are escapable and goal states stable.
func ModelCheck[T any](p Problem[T], g *Graph, initial []T) (*ModelCheckReport, error) {
	groups := make([][]int, 0, g.M()+1)
	for _, e := range g.Edges() {
		groups = append(groups, []int{e.A, e.B})
	}
	if g.N() > 0 {
		groups = append(groups, mc.WholeGroup(g.N())[0])
	}
	return mc.Explore(mc.Spec[T]{
		Initial: initial,
		Groups:  groups,
		Succ:    mc.ProblemSucc(p),
		Problem: p,
	})
}

// --- Additional problems and combinators ---

// Tuple is the agent state of a product problem.
type Tuple[A, B any] = problems.Tuple[A, B]

// NewProduct composes two problems into one: f applies componentwise and
// h adds — the methodology composes. Component problems must use exact
// equality (all the integer problems here do).
func NewProduct[A, B any](pa Problem[A], pb Problem[B]) Problem[Tuple[A, B]] {
	return problems.NewProduct(pa, pb)
}

// NewRange returns min × max: every agent learns both extremes (values
// strictly below bound).
func NewRange(bound int) Problem[Tuple[int, int]] { return problems.NewRange(bound) }

// InitialTuples pairs each value with itself, the initial state for
// same-typed products such as Range.
func InitialTuples(values []int) []Tuple[int, int] { return problems.InitialTuples(values) }

// Set is a ≤64-element set as a bitmask, the state of set-union
// consensus.
type Set = problems.Set

// SetOf builds a Set from element indices (0–63).
func SetOf(elems ...int) Set { return problems.SetOf(elems...) }

// NewSetUnion returns set-union consensus: every agent ends with the
// union of all initial sets.
func NewSetUnion() Problem[Set] { return problems.NewSetUnion() }

// MedianF is the (lower) median consensus function — idempotent but NOT
// super-idempotent; exposed so downstream designers can watch the
// checkers refute a tempting f (see examples/designcheck).
func MedianF() Function[int] { return problems.MedianF() }

// SecondSmallestF is the §4.3 naive second-smallest function — the
// paper's own example of an f the checkers must refute.
func SecondSmallestF() Function[int] { return problems.SecondSmallestF() }

// --- Additional environments ---

// MarkovLinks is bursty link churn: each edge is an independent on/off
// Markov chain (stationary availability pDownToUp/(pUpToDown+pDownToUp)).
func MarkovLinks(g *Graph, pUpToDown, pDownToUp float64) Environment {
	return env.NewMarkovLinks(g, pUpToDown, pDownToUp)
}

// DayNight alternates dayRounds of full availability with nightRounds of
// total blackout.
func DayNight(g *Graph, dayRounds, nightRounds int) Environment {
	return env.NewDayNight(g, dayRounds, nightRounds)
}

// ComposeEnvironments layers environments over the same graph: an edge or
// agent is up only when every layer agrees.
func ComposeEnvironments(layers ...Environment) (Environment, error) {
	return env.NewCompose(layers...)
}

// --- Continuous-state extension (§1.2) ---

// FlowOptions configures a continuous Laplacian-averaging run.
type FlowOptions = flow.Options

// FlowResult reports a continuous run.
type FlowResult = flow.Result

// RunFlow executes environment-gated Laplacian averaging — the paper's
// §1.2 continuous-dynamics extension: the mean is conserved exactly, the
// disagreement Σ(xi−xj)² contracts for any dt below MaxStableFlowDt, and
// partitioned components hold their own means (self-similarity in
// continuous state).
func RunFlow(e Environment, x0 []float64, opts FlowOptions) (*FlowResult, error) {
	return flow.Run(e, x0, opts)
}

// MaxStableFlowDt returns a provably stable Euler step for the
// environment's graph.
func MaxStableFlowDt(e Environment) float64 { return flow.MaxStableDt(e) }

// Hypercube returns the d-dimensional hypercube over 2^d agents.
func Hypercube(d int) *Graph { return graph.Hypercube(d) }

// Torus returns the rows×cols wraparound mesh.
func Torus(rows, cols int) *Graph { return graph.Torus(rows, cols) }

// BinaryTree returns the complete binary tree over n agents — the
// worst-case topology under churn (every edge is a cut edge).
func BinaryTree(n int) *Graph { return graph.BinaryTree(n) }
