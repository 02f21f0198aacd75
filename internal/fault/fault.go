// Package fault defines fault-injection plans for the engine's async
// executor. Where a schedule.Schedule controls *when* messages are
// delivered and nodes are activated, a Plan controls *whether*: per step it
// can drop or duplicate individual delivered messages and crash or recover
// individual nodes, with deterministic seeded generators, so any
// fault-tolerance experiment replays bit-identically from a (schedule seed,
// fault seed) pair.
//
// # Fault model
//
// The model follows the message-adversary tradition of Santoro–Widmayer,
// studied epistemically by Goubault–Rajsbaum (arXiv:1704.07883): a dropped
// message is not removed from its link — it is delivered as m0, the "no
// message" symbol of Section 1.1. This is deliberate. The async executor's
// Kahn discipline fires a node only on a full frontier (one delivered
// message per in-port); physically removing messages would starve frontiers
// and wedge every one-per-port run after finitely many losses, because
// nodes transmit only when they fire. Delivering m0 instead loses exactly
// the information content of the message while preserving liveness — the
// receiver observes silence, as it would from a halted or crashed
// neighbour. Duplication enqueues a second copy, so a receiver can consume
// a stale value twice; crash-stop freezes a node (its frontier keeps
// draining and it emits m0, so neighbours are not wedged); crash-recover
// additionally revives it after a seeded downtime, either resuming the
// frozen state or resetting it to the machine's initial state (the
// transient memory-loss fault of the self-stabilisation literature; see
// machine.Rebooter for machines with stable storage).
//
// # Fairness and settlement
//
// A plan is "fair" when it perturbs the run only finitely: every generator
// here is transient, injecting faults up to a seeded horizon and reporting
// quiescence through Settled. This mirrors Dijkstra's definition of
// self-stabilisation — convergence is only required after the transient
// faults cease — and is what keeps the executor's fixpoint detection sound:
// the engine probes for a global fixpoint only once the plan is settled,
// since an unsettled plan could still perturb a configuration that looks
// steady (a future m0-substitution or reset is an adversarial state
// change). The self-stabilisation harness (internal/stabilize) builds on
// this: run to fixpoint under a fault plan, then compare the stabilised
// configuration with the fault-free synchronous run.
package fault

import "weakmodels/internal/schedule"

// Fate is the outcome a Plan assigns to one delivered message.
type Fate int8

const (
	// FateDeliver delivers the message unchanged.
	FateDeliver Fate = iota
	// FateDrop delivers m0 in place of the message: the content is lost,
	// the delivery slot is not (the omission fault of message adversaries).
	FateDrop
	// FateDup delivers the message twice: the receiver's queue gains an
	// extra copy, to be consumed by a later firing.
	FateDup
	// FateCorrupt delivers a rewritten payload in the message's place: the
	// Byzantine channel fault. Only plans implementing Corrupter may return
	// it — the engine follows up every FateCorrupt with a Corrupt call for
	// the replacement payload, on the same goroutine and in the same
	// (link, queue-position) order as the Filter that drew it.
	FateCorrupt
)

// String returns the -faults vocabulary for the fate.
func (f Fate) String() string {
	switch f {
	case FateDeliver:
		return "deliver"
	case FateDrop:
		return "drop"
	case FateDup:
		return "dup"
	case FateCorrupt:
		return "corrupt"
	default:
		return "Fate(?)"
	}
}

// RecoverKind says how a crashed node comes back.
type RecoverKind int8

const (
	// RecoverNone requests no recovery.
	RecoverNone RecoverKind = iota
	// RecoverResume revives the node with its pre-crash state intact
	// (messages consumed during the downtime are still lost — the node's
	// frontier drained while it was down).
	RecoverResume
	// RecoverReset revives the node with its state reset to the machine's
	// initial state z0(deg) — or to machine.Rebooter.RebootState when the
	// machine models stable storage.
	RecoverReset
)

// Topology is the static shape of the run a Plan is injected into,
// available from Begin. Links are the directed in-port slots of the
// routing table, exactly as in schedule.View.
type Topology interface {
	// Nodes returns the node count.
	Nodes() int
	// Links returns the number of directed links.
	Links() int
	// Degree returns the degree of node v.
	Degree(v int) int
	// LinkSrc returns the node whose out-port feeds link l.
	LinkSrc(l int) int
	// LinkDst returns the node whose in-port link l feeds.
	LinkDst(l int) int
}

// View is the read-only run feedback a Plan may consult when deciding a
// step: the schedule view plus the current liveness of every node.
type View interface {
	schedule.View
	// Alive reports whether node v is currently not crashed.
	Alive(v int) bool
}

// Decision is the engine-owned buffer a Plan fills at each step with its
// crash, recovery and retransmission requests. The engine clamps requests
// to what is possible: crashing a crashed node and recovering an alive one
// are no-ops, and a retransmission on a link whose source is dead or
// halted re-sends m0 (a dead sender has nothing to say). Message fates are
// not part of the Decision — they are decided per delivery through Filter,
// after the schedule has chosen what to deliver.
type Decision struct {
	// Crash[v] requests that node v crash this step.
	Crash []bool
	// Recover[v] requests that node v recover this step, and how.
	Recover []RecoverKind
	// Resend[l] requests that the source of link l retransmit its current
	// steady message onto l this step — the sender-side retry of the
	// retransmit plan. The extra copy joins the link's queue behind
	// whatever is already in flight, exactly like a duplication, so Kahn
	// frontiers stay well formed.
	Resend []bool
}

// NewDecision allocates a Decision sized for a run.
func NewDecision(nodes, links int) *Decision {
	return &Decision{
		Crash:   make([]bool, nodes),
		Recover: make([]RecoverKind, nodes),
		Resend:  make([]bool, links),
	}
}

// Reset clears the decision for the next step.
func (d *Decision) Reset() {
	clear(d.Crash)
	clear(d.Recover)
	clear(d.Resend)
}

// Plan decides, per step, which delivered messages are dropped or
// duplicated and which nodes crash or recover. Implementations are
// deterministic: the same (plan spec, seed) pair replays the same faults
// against the same execution. A Plan is stateful within a run and must be
// fully reset by Begin; it must not be shared between concurrent runs.
type Plan interface {
	// Name returns the canonical -faults spelling of this plan.
	Name() string
	// Begin resets the plan for a run over the given topology.
	Begin(top Topology)
	// Step fills dec with the crash/recovery decision for step t (t ≥ 1),
	// before the step's deliveries and activations.
	Step(t int, view View, dec *Decision)
	// Filter assigns a fate to one message the schedule is delivering on
	// link l at step t. The engine calls it once per delivered message, in
	// deterministic (link, queue-position) order — always from a single
	// goroutine: the async executor delivers a plan run's messages in one
	// pass over the links, before the step's firings, so a Plan's random
	// stream stays sequential without any locking in the Plan.
	Filter(t int, link int) Fate
	// Settled reports that the plan will never again perturb the run: no
	// future drop, duplication, corruption, retransmission, crash or
	// recovery is possible. The engine gates fixpoint detection on it,
	// because an unsettled plan could still perturb a configuration that
	// currently looks steady.
	Settled() bool
}

// Corrupter is the optional Plan extension for Byzantine channels. When a
// plan's Filter returns FateCorrupt, the engine immediately calls Corrupt
// with the genuine payload (m0 for a silent sender) and delivers the
// returned rewrite in its place. The call happens on the same goroutine
// and in the same (link, queue-position) order as the Filter that drew the
// fate — both run during the executor's delivery pass — so a Corrupter's
// random stream stays sequential and the run reproducible from its seed.
type Corrupter interface {
	Plan
	// Corrupt returns the payload delivered in place of msg on link l at
	// step t. Returning msg unchanged is allowed (the corruption is still
	// counted); returning NoMessage models corruption-to-silence.
	Corrupt(t int, link int, msg string) string
}

// CanCorrupt reports whether plan can ever emit FateCorrupt, looking
// through composites (a composite satisfies Corrupter structurally even
// when no component corrupts). The engine uses it to skip corruption
// bookkeeping (and the receiver-side message guard) entirely for plans
// that cannot lie.
func CanCorrupt(plan Plan) bool {
	if c, ok := plan.(*composite); ok {
		return c.canCorrupt
	}
	_, ok := plan.(Corrupter)
	return ok
}

// Healer is the optional Plan extension for partition plans: it exposes
// how many cut links have been restored, for telemetry. The engine copies
// the final count into Result.Healed after the run.
type Healer interface {
	Plan
	// Healed returns the number of links cut by this plan that have healed
	// so far in the current run.
	Healed() int64
}
