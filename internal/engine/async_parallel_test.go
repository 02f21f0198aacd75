package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// shardedSuiteGraphs is suiteGraphs plus a graph with isolated nodes:
// zero-degree nodes always hold a full frontier, so they exercise the
// sharded firing pass without any queue traffic.
func shardedSuiteGraphs() []*graph.Graph {
	return append(suiteGraphs(),
		graph.DisjointUnion(graph.Cycle(3), graph.MustNew(2, nil)))
}

// TestAsyncShardedEquivalence is the property test required of the sharded
// async driver: for every (schedule, fault plan, graph) cell of the suite,
// across shard counts and at GOMAXPROCS 1 and 4, the sharded executor must
// be bit-identical to the single-threaded one — the whole Result (Output,
// Rounds, MessageBytes, Trace, Fires, Fixpoint, States, Alive, Drops,
// Dups, Corruptions, Crashes, Recoveries, Retransmits, Healed), and
// identical ErrNoHalt failures. CI runs this under -race, which also
// proves the shard ownership discipline is data-race free.
func TestAsyncShardedEquivalence(t *testing.T) {
	const budget = 4_000
	schedSpecs := []string{"sync", "roundrobin", "random:0.4", "staleness:2", "adversary:3"}
	faultSpecs := []string{
		"",
		"drop:0.3,31,60+dup:0.2,32,60+crash:1,33,60",
		"adversary:2,9,60",
		// Hostile links: the corrupter's stream must interleave with the
		// filter's identically at every shard count, partition
		// cuts are correlated per-link state, and retransmissions are
		// coordinator-side queue pushes — all three must be invisible to
		// the shard count.
		"byzantine:0.3,41,60+partition:3,42,60",
		"crash:1,43,60+retransmit:2,44,60",
	}
	machinesOf := func(delta int, faulty bool) []machine.Machine {
		if faulty {
			// Fault cells deliver m0 in place of dropped messages, so only
			// machines that tolerate silence belong here.
			return []machine.Machine{
				inboxEcho(delta, machine.ClassMV),      // halts, multiset canonicalisation
				algorithms.MaxConsensus(delta),         // stabilises → fixpoint probe
				algorithms.LeafProximityStab(delta, 3), // self-stabilising, recomputes from inbox
			}
		}
		return []machine.Machine{
			degreeSum(delta),                  // halts, per-port sends
			inboxEcho(delta, machine.ClassMV), // halts, multiset canonicalisation
			algorithms.MaxConsensus(delta),    // stabilises without halting → fixpoint probe
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, g := range shardedSuiteGraphs() {
			p := port.Canonical(g)
			for _, schedSpec := range schedSpecs {
				for _, faultSpec := range faultSpecs {
					for _, m := range machinesOf(g.MaxDegree(), faultSpec != "") {
						label := fmt.Sprintf("procs=%d %s on %v schedule=%s faults=%q",
							procs, m.Name(), g, schedSpec, faultSpec)
						runWith := func(workers int) (*Result, error) {
							sched, err := schedule.Parse(schedSpec, 77)
							if err != nil {
								t.Fatal(err)
							}
							var plan fault.Plan
							if faultSpec != "" {
								if plan, err = fault.Parse(faultSpec, 1); err != nil {
									t.Fatal(err)
								}
							}
							return Run(m, p, Options{
								MaxRounds:   budget,
								RecordTrace: true,
								Executor:    ExecutorAsync,
								Workers:     workers,
								Schedule:    sched,
								Fault:       plan,
							})
						}
						ref, refErr := runWith(1)
						for _, workers := range []int{2, 4} {
							got, gotErr := runWith(workers)
							if (refErr == nil) != (gotErr == nil) {
								t.Fatalf("%s workers=%d: single-threaded err %v, sharded err %v",
									label, workers, refErr, gotErr)
							}
							if refErr != nil {
								if !errors.Is(gotErr, ErrNoHalt) || !errors.Is(refErr, ErrNoHalt) {
									t.Fatalf("%s workers=%d: unexpected errors %v / %v",
										label, workers, refErr, gotErr)
								}
								continue
							}
							if want := min(workers, g.N()); got.Shards != want {
								t.Fatalf("%s workers=%d: ran on %d shards, want %d",
									label, workers, got.Shards, want)
							}
							// Shards reports the runtime fan-out, not the
							// semantics: it is the one field allowed to
							// differ across worker counts.
							got.Shards = ref.Shards
							if !reflect.DeepEqual(ref, got) {
								t.Fatalf("%s workers=%d: results diverged\nsingle:  %+v\nsharded: %+v",
									label, workers, ref, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestAsyncShardedWorkerClamp: a shard count far above the node count is
// clamped, one-node shards work, and the default (Workers unset →
// GOMAXPROCS) stays bit-identical to an explicit single worker.
func TestAsyncShardedWorkerClamp(t *testing.T) {
	g := graph.Star(5)
	p := port.Canonical(g)
	m := degreeSum(g.MaxDegree())
	run := func(workers int) *Result {
		res, err := Run(m, p, Options{
			RecordTrace: true,
			Executor:    ExecutorAsync,
			Workers:     workers,
			Schedule:    schedule.RoundRobin(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{0, 64} {
		got := run(workers)
		switch {
		case workers == 0 && got.Shards != 1:
			// Star(5) is far below the auto-shard threshold: the default
			// must stay inline.
			t.Fatalf("workers=0: ran on %d shards, want 1", got.Shards)
		case workers == 64 && got.Shards != g.N():
			t.Fatalf("workers=64: ran on %d shards, want the node-count clamp %d", got.Shards, g.N())
		}
		got.Shards = ref.Shards // runtime fan-out, not semantics
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d diverged from the single-threaded run", workers)
		}
	}
}

// TestAsyncShardedNoHalt: a run that neither halts nor stabilises fails
// with ErrNoHalt at the same step budget on the sharded driver.
func TestAsyncShardedNoHalt(t *testing.T) {
	spinner := &machine.Func{
		MachineName:  "spinner",
		MachineClass: machine.ClassSB,
		MaxDeg:       2,
		InitFunc:     func(int) machine.State { return 0 },
		HaltedFunc:   func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc:     func(machine.State, int) machine.Message { return machine.NoMessage },
		StepFunc:     func(s machine.State, _ []machine.Message) machine.State { return (s.(int) + 1) % 3 },
	}
	for _, workers := range []int{2, 4} {
		_, err := Run(spinner, port.Canonical(graph.Cycle(6)), Options{
			MaxRounds: 500,
			Executor:  ExecutorAsync,
			Workers:   workers,
		})
		if !errors.Is(err, ErrNoHalt) {
			t.Errorf("workers=%d: err = %v, want ErrNoHalt", workers, err)
		}
	}
}
