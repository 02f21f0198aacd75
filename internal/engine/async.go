package engine

// async.go implements the asynchronous executor's Kahn-frontier core:
// the per-link queue state, the delivery and firing primitives and the
// fixpoint condition. The driver — the step loop — lives in
// async_driver.go. Where the synchronous executors run the Section 1.3
// semantics directly — one global barrier per round over a
// double-buffered arena — the async executor replaces the barrier with
// per-link FIFO queues and hands control of time to a schedule.Schedule:
// at every step the schedule decides which sent messages are delivered
// and which nodes are activated.
//
// The execution discipline is Kahn-style. Every directed link (an in-port
// slot of the routing table) carries one FIFO, split by a delivery cursor
// into mail (delivered, consumable) and messages in flight (sent,
// undelivered) behind it; delivering moves the cursor. An activated node
// fires only when every one of its in-ports has mail — a full frontier —
// and a firing consumes exactly one message per in-port, steps δ, and
// emits one message per out-port onto the back of its out-links' queues.
// Halted nodes keep firing to drain their queues and feed m0 to their
// neighbours, exactly as halted nodes send m0 forever in the synchronous
// semantics.
//
// One-per-port consumption makes the executor confluent: the j-th message
// on link u→v is u's j-th emission, so the k-th firing of v computes
//
//	x_v^k = δ(x_v^{k-1}, [μ(x_u^{k-1}, ·)]_u)
//
// — exactly the synchronous recurrence. A schedule chooses how fast each
// node advances along the synchronous trajectory, never where the
// trajectory goes; under any fair schedule halting algorithms reach the
// synchronous outputs, and under schedule.Synchronous the executor is
// bit-identical to ExecutorSeq (TestAsyncSynchronousEquivalence).
// The per-step state snapshots recorded into Result.Trace are therefore
// causality-consistent by construction: each is a configuration of the
// actual interleaved execution.
//
// Fixpoint detection: runs that stabilise without halting (the situation
// characterised by the modal μ-fragment) are cut off without waiting for
// the step budget. Every asyncFixpointInterval steps the executor checks
// whether (a) every queued or in-flight message equals what its source
// would send from its current state, and (b) no non-halted node would
// change state or halt on that steady inbox. If both hold, induction on
// fire events shows no future step can change any state: the run is at a
// global fixpoint and every undelivered message is a no-op re-send.
//
// Fault injection (Options.Fault, internal/fault) hooks into three
// places, all behind a nil check so fault-free runs pay nothing. First,
// delivery fates, applied in place by deliver as the cursor passes each
// message the schedule delivers — delivered, dropped (m0 written in its
// slot: the omission fault of message adversaries, preserving the
// one-entry-per-emission discipline so frontiers never starve),
// duplicated (a copy inserted at the cursor) or corrupted (a Byzantine
// plan's Corrupter rewrites the payload; receivers implementing
// machine.MessageGuard degrade out-of-alphabet garbage to m0 at
// canonicalisation, so corruption is at worst omission to a guarded
// machine). Partition plans are correlated omission over a cut link set,
// so they ride the same fates.
// Second, a liveness mask gating activation: a crashed node's firings
// drain its frontier and emit m0 — like a halted node, so neighbours are
// not wedged — but never step δ; a recovery lifts the mask, either
// resuming the frozen state or resetting it through machine.Reboot.
// Third, sender-side retransmissions (fault.Decision.Resend): the
// driver pushes a link's steady message onto its queue behind
// whatever is in flight, so a recovering node re-receives its frontier —
// for the fixpoint argument the extra copy is a no-op re-send, and for
// the Kahn discipline it is indistinguishable from a duplication. The
// fixpoint probe stays sound under faults by treating dead nodes as
// frozen (their steady message is m0, their state exempt from the
// would-change check) and by running only once the plan is settled: an
// unsettled plan could still perturb a steady-looking configuration with
// a future m0-substitution, retransmission or reset.

import (
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// asyncFixpointInterval(n) spaces the O(ports + n·Step) fixpoint probes far
// enough apart to amortise to ~O(1) per step. The floor of 64 also keeps
// the probe out of the bit-identity property test, whose budget is smaller:
// within the budget, async-under-Synchronous fails with ErrNoHalt exactly
// when the sequential executor does.
func asyncFixpointInterval(n int) int {
	if n > 64 {
		return n
	}
	return 64
}

// linkQueue is the FIFO of one directed link. buf[head:dlv] is the mail
// (delivered, consumed one entry per firing at head) and buf[dlv:] is in
// flight (sent, undelivered), oldest first. Delivery moves the cursor dlv:
// a message keeps its slot from send to consumption, and a fate rewrites
// it where it sits.
type linkQueue struct {
	buf       []FlightMessage
	head, dlv int
}

// mail is the number of delivered, unconsumed messages.
func (q *linkQueue) mail() int { return q.dlv - q.head }

// inFlight is the number of sent, undelivered messages.
func (q *linkQueue) inFlight() int { return len(q.buf) - q.dlv }

// push appends a sent message. A full buffer whose consumed prefix is at
// least a quarter of it slides its live entries down instead of growing: a
// link whose mail never fully drains would otherwise keep every consumed
// slot. Sliding only when a quarter is consumed keeps push amortised O(1),
// and a buffer grows only when over three quarters of it is live, so its
// capacity stays within about three times the link's peak live depth.
func (q *linkQueue) push(m machine.Message, born int) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 4*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // release the strings
		q.buf, q.dlv, q.head = q.buf[:n], q.dlv-q.head, 0
	}
	q.buf = append(q.buf, FlightMessage{Msg: m, Born: born})
}

// pop consumes the oldest delivered message.
func (q *linkQueue) pop() machine.Message {
	m := q.buf[q.head].Msg
	q.buf[q.head] = FlightMessage{} // release the string
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head, q.dlv = q.buf[:0], 0, 0
	}
	return m
}

// dup delivers the message at the cursor twice: a copy joins it behind the
// cursor, and the cursor passes the original.
func (q *linkQueue) dup() {
	q.push(machine.NoMessage, 0)
	copy(q.buf[q.dlv+1:], q.buf[q.dlv:])
	q.dlv++
}

// asyncState is the execution state of one asynchronous run.
type asyncState struct {
	m         machine.Machine
	g         *graph.Graph
	off       []int32 // CSR offsets: in-ports of v are links off[v]..off[v+1]-1
	dest      []int32 // out-port slot → destination link
	src       []int32 // link → out-port slot feeding it
	node      []int32 // slot → owning node
	broadcast bool
	recv      machine.RecvMode

	states  []machine.State
	halted  []bool
	outputs []machine.Output

	queues []linkQueue // per link: mail, then messages in flight
	ready  []int32     // per node: in-ports with non-empty mail
	fires  []int64     // per node: completed firings

	// Scratch of the firing pass and the fixpoint probe, both sized to the
	// maximum degree: the frontier a firing consumes through, and the
	// canonicalisation buffer.
	inbox, scratch []machine.Message

	// Fault state, allocated only when a plan runs (plan != nil): the
	// liveness mask, the initial states recoveries reset to, and the
	// plan's decision buffer. corrupt is the plan's Corrupter when it can
	// emit FateCorrupt (nil otherwise), and guard the machine's alphabet
	// guard, consulted per firing only when a corrupter runs — fault-free
	// and corruption-free runs pay a nil check and nothing else.
	plan    fault.Plan
	alive   []bool
	init    []machine.State
	fdec    *fault.Decision
	corrupt fault.Corrupter
	guard   machine.MessageGuard

	// jr is the run's journal, nil when no sink is attached. The firing
	// pass appends fire/halt events to its stepStats buffer; everything
	// else is buffered in global order as it happens (see journal.go).
	jr *journal
}

func newAsyncState(m machine.Machine, g *graph.Graph, p *port.Numbering, opts Options) (*asyncState, int, error) {
	n := g.N()
	r := p.Routes()
	links := r.NumPorts()
	as := &asyncState{
		m:         m,
		g:         g,
		off:       r.Offsets(),
		dest:      r.DestTable(),
		src:       r.SourceTable(),
		node:      r.NodeTable(),
		broadcast: m.Class().Send == machine.SendBroadcast,
		recv:      m.Class().Recv,
		states:    make([]machine.State, n),
		halted:    make([]bool, n),
		outputs:   make([]machine.Output, n),
		queues:    make([]linkQueue, links),
		ready:     make([]int32, n),
		fires:     make([]int64, n),
		inbox:     make([]machine.Message, g.MaxDegree()),
		scratch:   make([]machine.Message, 0, g.MaxDegree()),
		jr:        newJournal(opts.Obs),
	}
	// Seed every queue with a capacity-2 slice carved out of one flat
	// backing array: one delivered message and one newly sent behind it —
	// a node's emission can land behind a neighbour's unconsumed mail — so
	// schedules that deliver promptly (Synchronous, RoundRobin) run
	// allocation-free; deeper queues grow their own buffers on demand.
	backing := make([]FlightMessage, 2*links)
	for l := range as.queues {
		as.queues[l].buf = backing[2*l : 2*l : 2*l+2]
	}
	active := n
	for v := 0; v < n; v++ {
		s, err := initState(m, g.Degree(v), v, opts)
		if err != nil {
			return nil, 0, err
		}
		as.states[v] = s
		if out, ok := m.Halted(s); ok {
			as.halted[v] = true
			as.outputs[v] = out
			active--
		}
	}
	if opts.Fault != nil {
		as.plan = opts.Fault
		as.alive = make([]bool, n)
		for v := range as.alive {
			as.alive[v] = true
		}
		// Snapshot z0 per node for reset recoveries: states are immutable
		// values (Step is pure), so sharing the initial state is safe.
		as.init = append([]machine.State(nil), as.states...)
		as.fdec = fault.NewDecision(n, links)
		if fault.CanCorrupt(opts.Fault) {
			as.corrupt = opts.Fault.(fault.Corrupter)
			if g, ok := m.(machine.MessageGuard); ok {
				as.guard = g
			}
		}
	}
	return as, active, nil
}

// dead reports whether node v is currently crashed. The alive mask is nil
// on fault-free runs, keeping the hot paths a single nil check away from
// their no-fault cost.
func (as *asyncState) dead(v int) bool {
	return as.alive != nil && !as.alive[v]
}

// silent reports whether node v currently emits m0 on every port: halted
// nodes send m0 forever (Section 1.3), and so do crashed ones — a dead
// process is silent, and m0 is what silence looks like to a neighbour.
func (as *asyncState) silent(v int) bool {
	return as.halted[v] || as.dead(v)
}

// emit sends node v's current outgoing messages onto its out-links,
// stamped with the given step: m0 on every port when v is silent, else
// μ(x_v, j) through each out-port j, computed once per firing for
// broadcast machines.
func (as *asyncState) emit(v, step int) {
	lo, hi := as.off[v], as.off[v+1]
	silent := as.silent(v)
	msg := machine.NoMessage
	if !silent && as.broadcast {
		msg = as.m.Send(as.states[v], 1)
	}
	for s := lo; s < hi; s++ {
		if !silent && !as.broadcast {
			msg = as.m.Send(as.states[v], int(s-lo)+1)
		}
		as.queues[as.dest[s]].push(msg, step)
	}
}

// deliver delivers up to k of the oldest in-flight messages on link l at
// step t, maintaining the frontier-readiness count of the receiving node.
// It is the one place fault fates are applied: under a plan, each message
// is given its fate where it sits — a drop writes m0 (the delivery slot
// survives, the content does not), a corruption writes the Corrupter's
// rewrite of the genuine payload, a dup inserts a copy at the cursor — and
// counted in res. A plan's Filter and Corrupt streams must be drawn in
// global (link, queue-position) order, so the driver calls deliver from
// one pass over the links in id order (asyncDriver.deliverLinks).
func (as *asyncState) deliver(l int32, k, t int, res *Result) {
	q := &as.queues[l]
	k = min(k, q.inFlight())
	if k <= 0 {
		return
	}
	if q.mail() == 0 {
		as.ready[as.node[l]]++
	}
	if as.plan == nil {
		q.dlv += k
		return
	}
	for i := 0; i < k; i++ {
		f := as.plan.Filter(t, int(l))
		switch f {
		case fault.FateDrop:
			res.Drops++
			q.buf[q.dlv].Msg = machine.NoMessage
		case fault.FateDup:
			res.Dups++
			q.dup()
		case fault.FateCorrupt:
			res.Corruptions++
			q.buf[q.dlv].Msg = as.corrupt.Corrupt(t, int(l), q.buf[q.dlv].Msg)
		}
		q.dlv++
		if as.jr != nil && f != fault.FateDeliver {
			as.jr.coordEvent(obs.Event{
				Step: int64(t), Kind: fateKind(f), Node: -1, Link: l, Arg: int64(i)})
		}
	}
}

// canFire reports whether node v holds a full frontier: one delivered
// message on every in-port. Zero-degree nodes can always fire.
func (as *asyncState) canFire(v int) bool {
	return as.ready[v] == as.off[v+1]-as.off[v]
}

// consume pops node v's frontier into the inbox scratch, steps δ (halted
// and crashed nodes discard — the liveness mask gates the δ-step, not the
// drain), and checks halting. Callers have checked canFire and must follow
// up with an emission of v's next messages.
func (as *asyncState) consume(v int, st *stepStats) {
	lo, hi := as.off[v], as.off[v+1]
	deg := int(hi - lo)
	inbox := as.inbox[:deg]
	for i := 0; i < deg; i++ {
		q := &as.queues[lo+int32(i)]
		msg := q.pop()
		if q.mail() == 0 {
			as.ready[v]--
		}
		st.bytes += int64(len(msg))
		inbox[i] = msg
	}
	as.fires[v]++
	if as.jr != nil {
		st.events = append(st.events, obs.Event{
			Step: int64(st.step), Kind: obs.KindFire, Node: int32(v), Link: -1,
			Arg: as.fires[v]})
	}
	if !as.halted[v] && !as.dead(v) {
		// Corruption-tolerant canonicalisation: under a corrupting plan,
		// payloads outside the machine's alphabet degrade to m0 — the
		// receiver treats garbage as silence, like an omission fault.
		if as.guard != nil {
			machine.GuardInbox(as.guard, inbox)
		}
		cin := machine.CanonicalInboxInto(as.recv, inbox, as.scratch)
		as.states[v] = as.m.Step(as.states[v], cin)
		if out, ok := as.m.Halted(as.states[v]); ok {
			as.halted[v] = true
			as.outputs[v] = out
			st.newHalts++
			if as.jr != nil {
				st.events = append(st.events, obs.Event{
					Step: int64(st.step), Kind: obs.KindHalt, Node: int32(v), Link: -1})
			}
		}
	}
}

// steadyMessage returns the message the source of link l would send right
// now: the fixpoint candidate every queued message is compared against.
func (as *asyncState) steadyMessage(l int32) machine.Message {
	s := as.src[l]
	u := as.node[s]
	if as.halted[u] || as.dead(int(u)) {
		return machine.NoMessage
	}
	if as.broadcast {
		return as.m.Send(as.states[u], 1)
	}
	return as.m.Send(as.states[u], int(s-as.off[u])+1)
}

// nodeAtFixpoint checks the fixpoint condition at node v: every message
// queued or in flight on its in-links equals the source's steady message,
// and — unless v is halted or dead (frozen: a settled plan will never
// revive it, so its state is exempt) — stepping v on the steady inbox
// would neither halt it nor change its state.
func (as *asyncState) nodeAtFixpoint(v int) bool {
	lo, hi := as.off[v], as.off[v+1]
	for l := lo; l < hi; l++ {
		q := &as.queues[l]
		if q.head == len(q.buf) {
			continue
		}
		want := as.steadyMessage(l)
		for _, fm := range q.buf[q.head:] {
			if fm.Msg != want {
				return false
			}
		}
	}
	if as.halted[v] || as.dead(v) {
		return true
	}
	inbox := as.inbox[:hi-lo]
	for l := lo; l < hi; l++ {
		inbox[l-lo] = as.steadyMessage(l)
	}
	cin := machine.CanonicalInboxInto(as.recv, inbox, as.scratch)
	next := as.m.Step(as.states[v], cin)
	if _, ok := as.m.Halted(next); ok {
		return false
	}
	return machine.StatesEqual(as.m, as.states[v], next)
}

// asyncView adapts asyncState to schedule.View and fault.View.
type asyncView struct{ as *asyncState }

func (w asyncView) Nodes() int        { return len(w.as.states) }
func (w asyncView) Links() int        { return len(w.as.queues) }
func (w asyncView) Fires(v int) int64 { return w.as.fires[v] }
func (w asyncView) Halted(v int) bool { return w.as.halted[v] }
func (w asyncView) InFlight(l int) int {
	return w.as.queues[l].inFlight()
}
func (w asyncView) OldestBorn(l int) int {
	q := &w.as.queues[l]
	if q.inFlight() == 0 {
		return -1
	}
	return q.buf[q.dlv].Born
}
func (w asyncView) Alive(v int) bool { return !w.as.dead(v) }

// asyncTopology adapts asyncState to fault.Topology.
type asyncTopology struct{ as *asyncState }

func (t asyncTopology) Nodes() int        { return len(t.as.states) }
func (t asyncTopology) Links() int        { return len(t.as.queues) }
func (t asyncTopology) Degree(v int) int  { return t.as.g.Degree(v) }
func (t asyncTopology) LinkSrc(l int) int { return int(t.as.node[t.as.src[l]]) }
func (t asyncTopology) LinkDst(l int) int { return int(t.as.node[l]) }

// applyFaults applies the plan's crash/recovery/retransmission decision
// for step t and returns the change in the active (non-halted) node
// count: a reset recovery can un-halt a halted node (reboot into a fresh
// z0) or, for machines whose initial state is already a stopping state,
// halt it again immediately.
func (as *asyncState) applyFaults(t int, view asyncView, res *Result) (activeDelta int) {
	as.fdec.Reset()
	as.plan.Step(t, view, as.fdec)
	for v, crash := range as.fdec.Crash {
		if crash && as.alive[v] {
			as.alive[v] = false
			res.Crashes++
			if as.jr != nil {
				as.jr.coordEvent(obs.Event{
					Step: int64(t), Kind: obs.KindCrash, Node: int32(v), Link: -1})
			}
		}
	}
	for v, kind := range as.fdec.Recover {
		if kind == fault.RecoverNone || as.alive[v] {
			continue
		}
		as.alive[v] = true
		res.Recoveries++
		if as.jr != nil {
			as.jr.coordEvent(obs.Event{
				Step: int64(t), Kind: obs.KindRecover, Node: int32(v), Link: -1,
				Arg: int64(kind)})
		}
		if kind != fault.RecoverReset {
			continue
		}
		ns := machine.Reboot(as.m, as.g.Degree(v), as.states[v], as.init[v])
		as.states[v] = ns
		wasHalted := as.halted[v]
		out, ok := as.m.Halted(ns)
		as.halted[v] = ok
		if ok {
			as.outputs[v] = out
			if !wasHalted {
				activeDelta--
			}
		} else {
			as.outputs[v] = ""
			if wasHalted {
				activeDelta++
			}
		}
	}
	// Sender-side retransmissions: push the source's current steady message
	// onto each requested link, stamped with this step, behind whatever is
	// already in flight, in ascending link order, before the step's fate
	// pass. A dead or halted source retransmits m0; for the fixpoint
	// argument the extra copy is exactly a no-op re-send.
	for l, resend := range as.fdec.Resend {
		if resend {
			as.queues[l].push(as.steadyMessage(int32(l)), t)
			res.Retransmits++
			if as.jr != nil {
				as.jr.coordEvent(obs.Event{
					Step: int64(t), Kind: obs.KindRetransmit, Node: -1, Link: int32(l)})
			}
		}
	}
	return activeDelta
}

// maxDefaultAsyncSteps caps the dilation-scaled default step budget so a
// non-halting, non-stabilising run cannot burn O(n·rounds) steps (each
// costing O(n+links) work) before erroring. Explicit MaxRounds is never
// capped.
const maxDefaultAsyncSteps = 10_000_000

// asyncStepBudget resolves the async step budget: an explicit MaxRounds is
// taken literally as steps; the default round budget is scaled by the
// schedule's worst-case steps-per-round dilation (n when the schedule does
// not report one) so fair-but-slow schedules like roundrobin don't
// spuriously hit ErrNoHalt, then capped at maxDefaultAsyncSteps.
func asyncStepBudget(opts Options, sched schedule.Schedule, n int) int {
	maxSteps := maxRoundsOf(opts)
	if opts.MaxRounds > 0 {
		return maxSteps
	}
	dilation := n
	if d, ok := sched.(schedule.Dilated); ok {
		dilation = d.Dilation(n)
	}
	if dilation > 1 {
		if maxSteps > maxDefaultAsyncSteps/dilation {
			maxSteps = maxDefaultAsyncSteps
		} else {
			maxSteps *= dilation
		}
	}
	return maxSteps
}
