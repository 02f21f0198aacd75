// Package schedule defines asynchronous activation/delivery schedules for
// the engine's async executor. The paper's weak models (Section 1.3) are
// synchronous — every node steps at every round behind a global barrier —
// but their modal characterisations extend to asynchrony (Reiter,
// arXiv:1611.08554, characterises asynchronous distributed automata by the
// modal μ-fragment). A Schedule makes the adversary explicit: at every step
// it decides which nodes are activated and which in-flight messages are
// delivered, turning "the network" into a first-class, seedable object that
// any experiment can be re-run under.
//
// The executor semantics (internal/engine, ExecutorAsync) are Kahn-style:
// every directed link carries a FIFO queue, and an activated node fires
// only when it holds at least one delivered message on every in-port,
// consuming exactly one per port. Because the machine is deterministic and
// consumption is one-per-port, the k-th firing of a node computes exactly
// the synchronous state x_k regardless of the schedule — schedules change
// interleaving and latency, never the trajectory. Under any fair schedule a
// halting algorithm therefore reaches the synchronous outputs, and under
// Synchronous the async executor is bit-identical to the sequential one.
//
// Schedules control when; whether is the next layer up. A fault.Plan
// (internal/fault, Options.Fault) filters the deliveries a schedule
// decides on — dropping a message delivers m0 in its place, so the
// one-entry-per-emission discipline above survives omission faults — and
// masks the activations of crashed nodes. The two layers compose: any
// (schedule, plan) pair is a reproducible adversary.
package schedule

// View is the read-only feedback a Schedule may consult when deciding a
// step. It is implemented by the engine over its live run state, so a
// View is only valid inside the Step call it was passed to, where the
// engine guarantees the run is quiescent: the async executor calls Step
// between steps, from the goroutine that runs the whole step loop.
// Schedules must treat it as strictly read-only and must not retain it
// across steps.
type View interface {
	// Nodes returns the node count of the run.
	Nodes() int
	// Links returns the number of directed links (= ports of the graph).
	Links() int
	// Fires returns how many times node v has fired (consumed its frontier).
	Fires(v int) int64
	// Halted reports whether node v has halted. Halted nodes still fire, to
	// drain their queues and feed m0 to their neighbours.
	Halted(v int) bool
	// InFlight returns the number of sent-but-undelivered messages on link l.
	InFlight(l int) int
	// OldestBorn returns the step at which the oldest in-flight message on
	// link l was sent, or -1 when the link is empty.
	OldestBorn(l int) int
}

// Decision is the engine-owned buffer a Schedule fills at each step. The
// engine resets it before every Step call and clamps all requests to what
// is actually possible (activating a node without a full frontier is a
// no-op; delivering more messages than are in flight delivers them all).
type Decision struct {
	// ActivateAll activates every node, ignoring Activate.
	ActivateAll bool
	// Activate[v] requests an activation of node v this step.
	Activate []bool
	// DeliverAll delivers every in-flight message, ignoring Deliver.
	DeliverAll bool
	// Deliver[l] is the number of oldest in-flight messages to deliver on
	// link l this step.
	Deliver []int32
}

// NewDecision allocates a Decision sized for a run.
func NewDecision(nodes, links int) *Decision {
	return &Decision{
		Activate: make([]bool, nodes),
		Deliver:  make([]int32, links),
	}
}

// Reset clears the decision for the next step.
func (d *Decision) Reset() {
	d.ActivateAll, d.DeliverAll = false, false
	clear(d.Activate)
	clear(d.Deliver)
}

// Dilated is an optional Schedule extension reporting how many schedule
// steps it takes, in the worst case, to simulate one synchronous round on
// an n-node run (e.g. 1 for Synchronous, n for RoundRobin, which activates
// a single node per step). The engine multiplies its default round budget
// by this factor for async runs so that slow-but-fair schedules do not
// spuriously exhaust the budget; an explicit MaxRounds is never scaled.
// Schedules that do not implement it are assumed to dilate by n.
type Dilated interface {
	Dilation(nodes int) int
}

// Resumable is the optional extension implemented by schedules — and, by
// the same shape, by fault plans — whose mid-run mutable state (RNG
// cursors, pending events, observations of the run so far) cannot be
// reconstructed by Begin alone. The engine snapshots that state into its
// checkpoints and restores it on resume, so a resumed run draws the
// exact randomness the uninterrupted run would have drawn. Generators
// that are stateless after Begin (Synchronous, RoundRobin, Adversary)
// deliberately do not implement it: re-running Begin reproduces them.
//
// RestoreState is only called after Begin with the topology the state
// was captured under; the blob format is private to each generator and
// versioned only by the snapshot that carries it.
type Resumable interface {
	// SnapshotState serializes the generator's mid-run mutable state.
	SnapshotState() []byte
	// RestoreState restores state captured by SnapshotState.
	RestoreState(b []byte) error
}

// Schedule decides, per step, which nodes are activated and which in-flight
// messages are delivered. Implementations are deterministic: the same
// (schedule spec, seed) pair replays the same decisions, which is what
// makes adversarial runs reproducible and bisectable. A Schedule is
// stateful within a run and must be fully reset by Begin; it must not be
// shared between concurrent runs.
type Schedule interface {
	// Name returns the canonical -schedule spelling of this schedule.
	Name() string
	// Begin resets the schedule for a run over the given topology size.
	Begin(nodes, links int)
	// Step fills dec with the decision for step t (t ≥ 1; step 0 is the
	// initial μ(x_0) emission, which no schedule controls).
	Step(t int, view View, dec *Decision)
}
