// Package engine executes a distributed state machine on a port-numbered
// graph, implementing the synchronous execution semantics of Section 1.3:
// at each round every node sends μ(x_t(v), j) through each out-port j, the
// messages are routed by the port numbering, and every node updates its
// state with δ. Halted nodes send m0 and never change state.
//
// # Architecture
//
// Every run starts from the same substrate: the port numbering is compiled
// (once, cached on the Numbering) into a CSR-style []int32 routing table
// mapping each out-port slot directly to its destination inbox slot
// (port.Routes), so message delivery is pure array indexing — no
// Dest/NeighborIndex calls in any hot loop.
//
// On top of it sit two execution semantics, which the three Executor
// values select between:
//
//   - ExecutorSeq and ExecutorPool run the synchronous semantics of
//     Section 1.3 (router.go) over locality-aware shards — contiguous
//     slices of a breadth-first order grown from a max-degree root
//     (graph.ShardByBFS via port.Locality), so shard boundaries cut few
//     links. All inboxes live in one flat double-buffered arena laid out
//     in BFS rank order, so each shard's inbox slots form one contiguous
//     region; a round is one combined pass per node — consume the inbox
//     from the current arena, step, emit next-round messages into the
//     other arena — with one barrier per round and the shards' byte/halt
//     counters folded at it. Multiset/Set canonicalisation reuses
//     per-shard scratch buffers (machine.CanonicalInboxInto), so steady
//     rounds allocate nothing. The run state owns its shards and, for
//     ExecutorPool, a pool of ~GOMAXPROCS worker goroutines, one per
//     shard; ExecutorSeq is the W=1 degenerate case running inline on the
//     caller. Both are bit-identical — TestExecutorEquivalence asserts it
//     across the experiment suite, including under -race.
//
//   - ExecutorAsync runs the asynchronous semantics (async.go, the Kahn
//     core; async_driver.go, the driver). The global barrier is replaced
//     by per-link FIFO queues and a schedule.Schedule that decides, at
//     every step, which nodes are activated and which in-flight messages
//     are delivered. An activated node fires only on a full frontier (one
//     delivered message per in-port), consuming exactly one message per
//     port — Kahn-style discipline that makes the run confluent:
//     schedules control interleaving and latency, never the trajectory,
//     so fair schedules reach the synchronous outputs and the Synchronous
//     schedule reproduces ExecutorSeq bit for bit
//     (TestAsyncSynchronousEquivalence). Runs that stabilise without
//     halting are cut off by fixpoint detection (see async.go); Result
//     reports per-node activation counts and a causality-consistent
//     trace. The driver runs on one shard, on the caller: each step
//     delivers on every link in id order, then fires the activated
//     full-frontier nodes in id order. A sharded firing pass measured no
//     faster, so Options.Workers does not apply (see async_driver.go).
//
// The schedule abstraction (internal/schedule) supplies deterministic
// seeded generators — Synchronous, RoundRobin, RandomSubset,
// BoundedStaleness, Adversary — so any experiment can be re-run under a
// reproducible adversary via Options.Schedule or weakrun's
// -executor=async -schedule=<spec> -seed=<s>.
//
// Layered on top of the schedule, a fault.Plan (Options.Fault) injects
// faults into the async executor: delivered messages can be dropped
// (delivered as m0 — the omission fault of message adversaries, which
// keeps the frontier discipline live), duplicated or corrupted (a
// Byzantine plan rewrites the payload; machines bound their alphabet via
// machine.MessageGuard so garbage degrades to m0), links can be cut and
// healed (partition plans — correlated omission, so frontiers never
// starve), senders can retransmit their steady message onto links of
// recovering nodes (fault.Decision.Resend), and nodes can crash and
// recover. Crashed nodes keep draining their frontiers and emit m0, so
// neighbours are never wedged; a reset recovery reinitialises the node via
// the machine (machine.Rebooter for stable storage). Fixpoint detection is
// gated on the plan being settled — see async.go.
//
// Observability (Options.Obs, internal/obs): each driver hands
// fixed-width journal events to the sink in a canonical global order as it
// produces them, with no buffering (journal.go). The async driver's events
// happen in that order on its one goroutine; the sync pool's shards only
// record each halt's round, and the coordinator emits the round's fire and
// halt events in node id order after the barrier. So the serialized JSONL
// of a seeded run is byte-identical across worker counts, and a metrics
// registry accumulates round timings and the Result counters across runs.
// A nil Obs costs one pointer test per emit site.
package engine

import (
	"errors"
	"fmt"

	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// DefaultMaxRounds bounds runs of algorithms whose time bound is unknown.
const DefaultMaxRounds = 10_000

// ErrNoHalt is returned when the machine does not stop within the round
// budget.
var ErrNoHalt = errors.New("engine: machine did not halt within the round budget")

// Executor selects the execution strategy. Both executors produce
// bit-identical results; they differ only in wall-clock behaviour.
type Executor int

const (
	// ExecutorSeq is the single-threaded reference executor (the default):
	// the synchronous semantics on one shard, run inline on the caller.
	ExecutorSeq Executor = iota
	// ExecutorPool is the sharded worker-pool executor: the same
	// synchronous semantics over ~GOMAXPROCS locality-aware BFS shards
	// (graph.ShardByBFS) with one barrier per round.
	ExecutorPool
	// ExecutorAsync is the asynchronous executor: per-link message queues
	// driven by a schedule.Schedule instead of a global barrier, with
	// fixpoint detection for runs that stabilise without halting. Unlike
	// the other two it interprets the round budget as a step budget and
	// honours Options.Schedule. It runs on one shard and ignores
	// Options.Workers.
	ExecutorAsync
)

// String returns the -executor flag spelling.
func (e Executor) String() string {
	switch e {
	case ExecutorSeq:
		return "seq"
	case ExecutorPool:
		return "pool"
	case ExecutorAsync:
		return "async"
	default:
		return fmt.Sprintf("Executor(%d)", int(e))
	}
}

// ParseExecutor parses the -executor flag spelling.
func ParseExecutor(s string) (Executor, error) {
	switch s {
	case "seq", "sequential":
		return ExecutorSeq, nil
	case "pool", "parallel":
		return ExecutorPool, nil
	case "async", "asynchronous":
		return ExecutorAsync, nil
	default:
		return 0, fmt.Errorf("engine: unknown executor %q (want seq|pool|async)", s)
	}
}

// Options configure a run. The zero value is ready to use.
type Options struct {
	// MaxRounds overrides DefaultMaxRounds when positive. For ExecutorAsync
	// it is a step budget and is taken literally; when unset, the default
	// is scaled by the schedule's worst-case steps-per-round dilation (see
	// schedule.Dilated), since e.g. roundrobin needs n steps per round.
	MaxRounds int
	// RecordTrace captures the full state vector after every round.
	RecordTrace bool
	// Executor selects the execution strategy (default ExecutorSeq).
	Executor Executor
	// Workers bounds the number of locality-aware (BFS-order) shards of
	// ExecutorPool when positive (default GOMAXPROCS, capped at the node
	// count). Every count produces bit-identical results. ExecutorSeq and
	// ExecutorAsync ignore it.
	Workers int
	// Schedule drives the async executor's activation and delivery
	// decisions (default schedule.Synchronous()). Setting it with any
	// other executor is an error. Schedules are stateful: do not share one
	// instance between concurrent runs.
	Schedule schedule.Schedule
	// Fault injects message loss/duplication and node crash/recovery into
	// the async executor (default nil: no faults, and the fault hooks cost
	// nothing). Setting it with any other executor is an error. Plans are
	// stateful: do not share one instance between concurrent runs.
	Fault fault.Plan
	// Inputs, when non-nil, supplies the local inputs f(v) of §3.4; the
	// machine must implement machine.InputAware and len(Inputs) must equal
	// the node count.
	Inputs []string
	// Checkpoint, when non-nil, emits a full-state Snapshot every
	// Checkpoint.Every steps (see snapshot.go). Works under every
	// executor; costs one nil test per step when unset.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, restarts the run from a Snapshot instead of
	// the initial configuration: execution continues at step Resume.Step+1
	// with all queues, counters and generator state restored, and the run
	// is bit-identical to the uninterrupted one from that step on. The
	// snapshot must come from the same machine/graph/numbering and the
	// same executor kind (sync vs async); Trace, when recorded, starts at
	// the resumed configuration. MaxRounds still counts from step 0.
	Resume *Snapshot
	// Obs attaches observability (internal/obs): a Sink receives the
	// run's event journal — every fire, delivery fate, crash/recovery,
	// partition heal and fixpoint probe, in a deterministic global order
	// that is byte-stable across Workers and GOMAXPROCS — and a Metrics
	// registry receives round timings plus a mirror of the Result
	// counters. Default nil: no telemetry, and the hooks cost nothing —
	// the fault-free sequential path keeps its committed alloc budget.
	// Attaching a journal never changes a run's Result.
	Obs *obs.Obs
}

// initState initialises a node's state, honouring local inputs.
func initState(m machine.Machine, deg, v int, opts Options) (machine.State, error) {
	if opts.Inputs == nil {
		return m.Init(deg), nil
	}
	ia, ok := m.(machine.InputAware)
	if !ok {
		return nil, fmt.Errorf("engine: inputs supplied but machine %q is not InputAware", m.Name())
	}
	return ia.InitWithInput(deg, opts.Inputs[v]), nil
}

// Result is the outcome of a run.
type Result struct {
	// Output[v] is the local output S(v) of each node.
	Output []machine.Output
	// Rounds is the number of communication rounds executed until every
	// node halted (the time T of Section 1.3).
	Rounds int
	// MessageBytes accumulates the total size of all non-m0 messages
	// delivered, a proxy for communication volume used by the
	// simulation-overhead experiments.
	MessageBytes int64
	// Trace, when recorded, holds the state vector x_t for t = 0..Rounds.
	// For the async executor each entry is the configuration after one
	// schedule step of the actual interleaved execution, so the sequence is
	// causality-consistent.
	Trace [][]machine.State
	// Fires[v] counts node v's completed activations — firings that
	// consumed a full frontier, including post-halt drain firings. Only the
	// async executor records it; nil otherwise.
	Fires []int64
	// Fixpoint reports that the async executor stopped at a detected global
	// fixpoint before every node halted: no future step could change any
	// state, and every undelivered message was a no-op re-send. Nodes that
	// had not halted have empty outputs.
	Fixpoint bool
	// States is the final state vector x_T of the run — the stabilised
	// configuration when the run ended at a fixpoint. Populated by every
	// executor.
	States []machine.State
	// Alive[v] reports whether node v was alive when the run ended; nil
	// unless a fault plan ran (no plan: everyone is alive). Nodes that are
	// dead at the end were crash-stopped and never recovered.
	Alive []bool
	// Drops counts messages a fault plan delivered as m0, Dups the ones it
	// duplicated, Crashes the node crashes it applied and Recoveries the
	// revivals. All zero when no fault plan ran.
	Drops, Dups         int64
	Crashes, Recoveries int64
	// Corruptions counts messages a Byzantine plan rewrote before delivery,
	// Healed the cut links a partition plan restored, and Retransmits the
	// sender-side retries a retransmit plan injected into the flight
	// queues. All zero when no fault plan ran.
	Corruptions, Healed, Retransmits int64
	// Shards is the number of runtime shards the run executed on: 1 for
	// ExecutorSeq and ExecutorAsync, the resolved worker count for
	// ExecutorPool. Telemetry only — every shard count produces
	// bit-identical results.
	Shards int
}

// Run executes m on (g, p) and returns the output vector.
//
// It validates that the machine's Δ covers the graph's maximum degree. The
// run stops when every node has halted, or fails with ErrNoHalt after the
// round budget.
func Run(m machine.Machine, p *port.Numbering, opts Options) (*Result, error) {
	g := p.Graph()
	if g.MaxDegree() > m.Delta() {
		return nil, fmt.Errorf("engine: graph max degree %d exceeds machine Δ=%d",
			g.MaxDegree(), m.Delta())
	}
	if opts.Inputs != nil && len(opts.Inputs) != g.N() {
		return nil, fmt.Errorf("engine: %d inputs for %d nodes", len(opts.Inputs), g.N())
	}
	exec := opts.Executor
	if opts.Schedule != nil && exec != ExecutorAsync {
		return nil, fmt.Errorf("engine: Options.Schedule is only supported by the async executor, not %v", exec)
	}
	if opts.Fault != nil && exec != ExecutorAsync {
		return nil, fmt.Errorf("engine: Options.Fault is only supported by the async executor, not %v", exec)
	}
	if cp := opts.Checkpoint; cp != nil {
		if cp.Every < 1 {
			return nil, fmt.Errorf("engine: Checkpoint.Every must be ≥ 1, got %d", cp.Every)
		}
		if cp.Sink == nil {
			return nil, fmt.Errorf("engine: Checkpoint.Sink is nil")
		}
	}
	if snap := opts.Resume; snap != nil {
		if wantSync := exec != ExecutorAsync; snap.Sync != wantSync {
			return nil, fmt.Errorf("engine: snapshot executor kind (sync=%v) does not match executor %v", snap.Sync, exec)
		}
	}
	switch exec {
	case ExecutorSeq:
		// The W=1 degenerate case of the pool path, run inline.
		return runSync(m, g, p, opts, 1, false)
	case ExecutorPool:
		return runSync(m, g, p, opts, poolWorkers(opts, g.N()), true)
	case ExecutorAsync:
		return runAsync(m, g, p, opts)
	default:
		return nil, fmt.Errorf("engine: unknown executor %v", exec)
	}
}

// maxRoundsOf resolves the round budget.
func maxRoundsOf(opts Options) int {
	if opts.MaxRounds > 0 {
		return opts.MaxRounds
	}
	return DefaultMaxRounds
}
