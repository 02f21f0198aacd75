package engine

// runtime.go is the shard-owned runtime layer the synchronous executors
// run on: one place that partitions the node set into locality-aware
// shards, owns the per-shard telemetry counters and scratch buffers, and
// drives the worker/barrier fan-out loop. The synchronous driver
// (router.go) plugs its phases in; the shard assignment, the counter merge
// and the barrier machinery live here and nowhere else. The asynchronous
// driver (async_driver.go) fires on one shard without the runtime and
// shares only its stepStats shape.
//
// Shards are contiguous rank ranges of the graph's BFS locality order
// (graph.BFSOrder via port.Locality, cached per numbering): shard w owns
// the nodes ranked [w·n/W, (w+1)·n/W), a connected, roughly ball-shaped
// patch of the graph whose boundary cuts few links. For the synchronous
// semantics the locality table also lays the message arena out in rank
// order, so each shard's inbox slots are one contiguous region of the
// double-buffered arena — the per-shard arena carve-up that keeps a
// worker's steady-round traffic inside its own patch (and the stepping
// stone to per-socket NUMA arenas).
//
// A runtime runs in one of two forms, chosen at start:
//
//   - inline: no goroutines; run() executes every shard's phase on the
//     caller, in shard order. This is ExecutorSeq — the W=1 degenerate
//     case of the sharded path.
//   - spawned: one persistent worker goroutine per shard, parked on a
//     command channel, separated from the coordinator by a WaitGroup
//     barrier per phase. Workers touch only their own shard's stats (and
//     whatever shard state the driver's ownership discipline grants), so
//     phases run with no atomics and no allocation.

import (
	"runtime"
	"sync"
	"time"

	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
)

// poolWorkers resolves the shard count: Options.Workers when positive,
// else GOMAXPROCS, always within [1, n].
func poolWorkers(opts Options, n int) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runtimePhase is a command executed by every shard between two barriers.
// Each driver defines its own phase constants; the runtime only transports
// them.
type runtimePhase uint8

// phaseRunner executes one phase over one shard. Drivers implement it;
// the runtime fans it out.
type phaseRunner interface {
	runPhase(w int, ph runtimePhase)
}

// stepStats accumulates one shard's per-phase telemetry, merged (and
// cleared) by the coordinator's fold at the barrier, plus the shard's
// canonicalisation scratch buffer. Only the owning shard writes to its
// entry during a phase, so the round loop needs no atomic operations.
type stepStats struct {
	step     int   // async only: the schedule step being executed
	bytes    int64 // message bytes produced (sync) or consumed (async)
	newHalts int   // nodes that halted during the phase
	// dur accumulates the shard's wall time inside phases since the last
	// drain, written by the owning shard when the runtime has a clock and
	// drained by the coordinator's runMetrics at the barrier. Zero cost
	// when no metrics registry is attached (nil clock).
	dur time.Duration
	// scratch is the shard's canonicalisation buffer (capacity = max
	// degree), reused across nodes and rounds by the synchronous driver;
	// the async driver keeps its frontier scratch in asyncState instead.
	scratch []machine.Message
	// events is the shard's journal buffer for the current phase: only
	// the owning shard appends during a phase, and the coordinator's
	// journal drains (and clears) it at the barrier — the same fold
	// discipline as the counters above. Never touched when the run has no
	// journal, so the disabled path allocates nothing.
	events []obs.Event
}

// shardRuntime is the shard-owned execution substrate. Embed it by value
// in a driver's run state and call init before use.
type shardRuntime struct {
	loc     *port.Locality
	workers int
	stats   []stepStats
	runner  phaseRunner
	cmds    []chan runtimePhase // nil in inline form
	barrier sync.WaitGroup
	// clock, when non-nil, makes every phase stamp its per-shard wall time
	// into stats[w].dur. Drivers set it from their runMetrics hook, so the
	// no-metrics path never reads a clock.
	clock obs.Clock
}

// init binds the runtime to a locality table and resolves the shard count,
// clamped to [1, n] (an empty graph keeps one degenerate shard so spans
// stay well-defined).
func (rt *shardRuntime) init(loc *port.Locality, workers int) {
	n := len(loc.Order)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	rt.loc = loc
	rt.workers = workers
	rt.stats = make([]stepStats, workers)
}

// span returns the rank range [lo, hi) of shard w: both its slice of the
// locality order and — through port.Locality's rank-indexed offsets — its
// contiguous region of the message arena.
func (rt *shardRuntime) span(w int) (lo, hi int) {
	n := len(rt.loc.Order)
	return w * n / rt.workers, (w + 1) * n / rt.workers
}

// start pins the driver and, when spawn is set, launches one persistent
// worker goroutine per shard. Without spawn the runtime stays inline:
// run() executes phases on the caller, which is both the W=1 degenerate
// case and data-race free by triviality.
func (rt *shardRuntime) start(r phaseRunner, spawn bool) {
	rt.runner = r
	if !spawn {
		return
	}
	rt.cmds = make([]chan runtimePhase, rt.workers)
	for w := range rt.cmds {
		rt.cmds[w] = make(chan runtimePhase, 1)
		go func(w int, cmd <-chan runtimePhase) {
			for ph := range cmd {
				if rt.clock != nil {
					t0 := rt.clock.Now()
					r.runPhase(w, ph)
					rt.stats[w].dur += rt.clock.Now() - t0
				} else {
					r.runPhase(w, ph)
				}
				rt.barrier.Done()
			}
		}(w, rt.cmds[w])
	}
}

// run executes one phase over every shard and returns once all of them
// finished — the one barrier of the engine. Coordinator-side state written
// before run is visible to the workers (the channel send orders it), and
// shard writes are visible to the coordinator after the barrier.
func (rt *shardRuntime) run(ph runtimePhase) {
	if rt.cmds == nil {
		for w := 0; w < rt.workers; w++ {
			if rt.clock != nil {
				t0 := rt.clock.Now()
				rt.runner.runPhase(w, ph)
				rt.stats[w].dur += rt.clock.Now() - t0
			} else {
				rt.runner.runPhase(w, ph)
			}
		}
		return
	}
	rt.barrier.Add(len(rt.cmds))
	for _, cmd := range rt.cmds {
		cmd <- ph
	}
	rt.barrier.Wait()
}

// fold merges and clears the per-shard telemetry counters — the one
// counter-merge loop of the engine, run by the coordinator between
// barriers.
//
//weakvet:noalloc
func (rt *shardRuntime) fold() (bytes int64, halts int) {
	for w := range rt.stats {
		st := &rt.stats[w]
		bytes += st.bytes
		halts += st.newHalts
		st.bytes, st.newHalts = 0, 0
	}
	return bytes, halts
}

// stop shuts the spawned workers down; a no-op for inline runtimes.
func (rt *shardRuntime) stop() {
	for _, cmd := range rt.cmds {
		close(cmd)
	}
}
