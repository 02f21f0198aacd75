package engine

import (
	"fmt"
	"testing"

	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
)

// TestRuntimeShardsMatchShardByBFS pins the pool's shard assignment to
// the public graph.ShardByBFS contract: the nodes shard w owns — the
// locality order over its rank range — are exactly ShardByBFS's w-th
// shard. weakrun's cut-link telemetry recomputes the partition through
// graph.ShardByBFS, so this equality is what keeps the reported
// boundaries honest.
func TestRuntimeShardsMatchShardByBFS(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Torus(6, 6),
		graph.Star(9),
		graph.Petersen(),
		graph.DisjointUnion(graph.Cycle(4), graph.MustNew(2, nil)),
	}
	for _, g := range graphs {
		p := port.Canonical(g)
		for _, workers := range []int{1, 2, 3, 7, g.N() + 5} {
			rs, _, err := newRunState(runtimeCountdown(g.MaxDegree(), 1), g, p, Options{},
				poolWorkers(Options{Workers: workers}, g.N()))
			if err != nil {
				t.Fatal(err)
			}
			want := graph.ShardByBFS(g, workers)
			if len(rs.shards) != len(want) {
				t.Fatalf("%v workers=%d: runtime has %d shards, ShardByBFS %d",
					g, workers, len(rs.shards), len(want))
			}
			seen := 0
			for w, sh := range rs.shards {
				nodes := rs.order[sh.lo:sh.hi]
				if len(nodes) != len(want[w]) {
					t.Fatalf("%v workers=%d shard %d: %d nodes, want %d",
						g, workers, w, len(nodes), len(want[w]))
				}
				for i, v := range nodes {
					if int(v) != want[w][i] {
						t.Fatalf("%v workers=%d shard %d: node[%d]=%d, ShardByBFS says %d",
							g, workers, w, i, v, want[w][i])
					}
				}
				seen += len(nodes)
			}
			if seen != g.N() {
				t.Fatalf("%v workers=%d: shards cover %d of %d nodes", g, workers, seen, g.N())
			}
		}
	}
}

// runtimeCountdown is a constant-send machine halting after the given
// number of rounds; states are small ints, so the machine itself allocates
// nothing and the measurement isolates the engine.
func runtimeCountdown(delta, rounds int) machine.Machine {
	msgs := make([]machine.Message, delta+1)
	for p := range msgs {
		msgs[p] = fmt.Sprintf("m%d", p)
	}
	return &machine.Func{
		MachineName:  "runtime-countdown",
		MachineClass: machine.ClassMV,
		MaxDeg:       delta,
		InitFunc:     func(int) machine.State { return rounds },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			return "done", s.(int) == 0
		},
		SendFunc: func(s machine.State, p int) machine.Message { return msgs[p] },
		StepFunc: func(s machine.State, _ []machine.Message) machine.State {
			return s.(int) - 1
		},
	}
}

// TestRuntimeSteadyRoundsAllocateNothing is the per-shard-arena allocation
// budget: on one inline shard (ExecutorSeq, the W=1 degenerate case) a
// whole run costs a fixed number of setup allocations — no more than the
// seed's committed 9 — and steady rounds add nothing: quadrupling the
// round count must not change allocs/op. The arena, the shards and their
// scratch buffers are all carved out up front.
func TestRuntimeSteadyRoundsAllocateNothing(t *testing.T) {
	g := graph.Torus(16, 16)
	p := port.Canonical(g)
	p.Locality() // compile the cached tables outside the measurement
	allocsFor := func(rounds int) float64 {
		m := runtimeCountdown(g.MaxDegree(), rounds)
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(m, p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocsFor(8)
	if base > 9 {
		t.Errorf("seq run costs %.0f allocs, want at most the seed's 9", base)
	}
	if long := allocsFor(32); long != base {
		t.Errorf("allocations grew with rounds: %.0f at 8 rounds, %.0f at 32 — steady rounds must allocate nothing",
			base, long)
	}
}
