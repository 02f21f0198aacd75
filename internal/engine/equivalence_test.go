package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
)

// equivalenceBudget bounds every run in the executor property tests:
// machines that cannot halt on a given (graph, numbering) must fail
// identically with ErrNoHalt on seq and pool, while async may end such a
// run earlier at a detected fixpoint (TestAsyncSynchronousEquivalence).
const equivalenceBudget = 60

// suiteGraphs is the graph side of the experiment-suite matrix.
func suiteGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(6),
		graph.Cycle(7),
		graph.Star(5),
		graph.Complete(5),
		graph.Figure1Graph(),
		graph.Petersen(),
		graph.Grid(3, 3),
		graph.Torus(4, 4),
		graph.NoOneFactorCubic(),
		graph.DisjointUnion(graph.Cycle(3), graph.Path(3)),
	}
}

// suiteMachines is the machine side: every registry algorithm plus the
// local test machines covering all receive/send mode combinations.
func suiteMachines(delta int) []machine.Machine {
	ms := []machine.Machine{
		degreeSum(delta),
		inboxEcho(delta, machine.ClassVV),
		inboxEcho(delta, machine.ClassMV),
		inboxEcho(delta, machine.ClassSV),
		inboxEcho(delta, machine.ClassMB),
		inboxEcho(delta, machine.ClassSB),
	}
	for _, name := range algorithms.RegistryNames() {
		ms = append(ms, algorithms.Registry()[name](delta))
	}
	return ms
}

// TestExecutorEquivalence is the property test required of the pool
// executor: for every (machine, graph, numbering) triple in the experiment
// suite, across several worker counts and at GOMAXPROCS 1 and 4, the pool
// executor — now sharding over the BFS locality order, like every other
// parallel driver — must produce results bit-identical to the sequential
// executor: same Output vector, same Rounds, same MessageBytes, same
// Trace, same final States, and identical failures. CI runs this under
// -race, which also proves the shard pass is data-race free.
func TestExecutorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, g := range suiteGraphs() {
			delta := g.MaxDegree()
			numberings := map[string]*port.Numbering{
				"canonical":  port.Canonical(g),
				"random":     port.Random(g, rng),
				"consistent": port.RandomConsistent(g, rng),
			}
			for _, m := range suiteMachines(delta) {
				for pname, p := range numberings {
					label := fmt.Sprintf("procs=%d %s on %v ports=%s", procs, m.Name(), g, pname)
					seq, seqErr := Run(m, p, Options{MaxRounds: equivalenceBudget, RecordTrace: true})
					if seqErr == nil && seq.Shards != 1 {
						t.Fatalf("%s: seq ran on %d shards, want 1", label, seq.Shards)
					}
					for _, workers := range []int{0, 1, 3} {
						pool, poolErr := Run(m, p, Options{
							MaxRounds:   equivalenceBudget,
							RecordTrace: true,
							Executor:    ExecutorPool,
							Workers:     workers,
						})
						if (seqErr == nil) != (poolErr == nil) {
							t.Fatalf("%s workers=%d: seq err %v, pool err %v", label, workers, seqErr, poolErr)
						}
						if seqErr != nil {
							if !errors.Is(poolErr, ErrNoHalt) || !errors.Is(seqErr, ErrNoHalt) {
								t.Fatalf("%s workers=%d: unexpected errors %v / %v", label, workers, seqErr, poolErr)
							}
							continue
						}
						if want := poolShards(workers, g.N()); pool.Shards != want {
							t.Fatalf("%s workers=%d: ran on %d shards, want %d", label, workers, pool.Shards, want)
						}
						if seq.Rounds != pool.Rounds || seq.MessageBytes != pool.MessageBytes {
							t.Fatalf("%s workers=%d: telemetry differs (rounds %d/%d bytes %d/%d)",
								label, workers, seq.Rounds, pool.Rounds, seq.MessageBytes, pool.MessageBytes)
						}
						if !reflect.DeepEqual(seq.Output, pool.Output) {
							t.Fatalf("%s workers=%d: outputs differ\nseq:  %v\npool: %v",
								label, workers, seq.Output, pool.Output)
						}
						if !reflect.DeepEqual(seq.States, pool.States) {
							t.Fatalf("%s workers=%d: final states differ\nseq:  %v\npool: %v",
								label, workers, seq.States, pool.States)
						}
						if !reflect.DeepEqual(seq.Trace, pool.Trace) {
							t.Fatalf("%s workers=%d: traces differ", label, workers)
						}
					}
				}
			}
		}
	}
}

// poolShards mirrors the engine's worker resolution for assertions: an
// explicit count or GOMAXPROCS, clamped to [1, n].
func poolShards(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// TestPoolMatchesSequentialWithInputs covers the InputAware path of §3.4.
func TestPoolMatchesSequentialWithInputs(t *testing.T) {
	g := graph.Cycle(9)
	m := degreeSum(2)
	inputs := make([]string, g.N())
	for v := range inputs {
		inputs[v] = fmt.Sprintf("%d", v%3)
	}
	// degreeSum is not InputAware: both executors must reject identically.
	if _, err := Run(m, port.Canonical(g), Options{Inputs: inputs}); err == nil {
		t.Fatal("sequential executor accepted inputs for a non-InputAware machine")
	}
	if _, err := Run(m, port.Canonical(g), Options{Inputs: inputs, Executor: ExecutorPool}); err == nil {
		t.Fatal("pool executor accepted inputs for a non-InputAware machine")
	}
}
