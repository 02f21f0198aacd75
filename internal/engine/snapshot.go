package engine

// snapshot.go is the checkpoint layer of every executor: a Snapshot is the
// full execution state of a run at a step boundary — enough to continue
// the run as if it had never stopped. Options.Checkpoint emits one every
// K steps; Options.Resume restarts a run from one. The guarantee is
// bit-exactness: a resumed run produces the same Result, Trace suffix and
// journal suffix as the uninterrupted run, for every executor and worker
// count. internal/replay builds record/replay/bisect on top of this; the
// bench harness builds restartable n≈10⁶ sweeps on it.
//
// What is captured: states, halt flags, outputs, the async fire counts
// and liveness mask, every per-link queue cut at its delivery cursor into
// mail and messages in flight (async) or the current arena half plus its
// pending byte count (sync), the Result counters accumulated so far, and
// — via schedule.Resumable — the opaque mid-run state blobs of the
// schedule and fault generators (RNG cursors, pending retransmit bursts,
// displaced byzantine payloads). What is
// deliberately not captured: anything Begin reconstructs from the spec
// (crash event tables, partition cuts), the sync haltAge counters (reset
// to 0 on restore, provably unobservable: a halted node's extra send
// passes rewrite m0 into slots that read m0 either way), the derived
// ready counters (recomputed from the mail), and the send steps of
// delivered mail (only in-flight messages are ever aged).
//
// The binary form (MarshalBinary/UnmarshalSnapshot) is versioned and
// streams node states through encoding/gob. That puts one honest
// restriction on serializable runs: the machine's states must share one
// concrete, gob-encodable type (exported fields), because the decoder
// derives its type template from m.Init. Machines outside that contract
// (e.g. interface-valued composite states) still checkpoint in memory —
// stabilize's bisection keeps live Snapshot values and never serializes.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"

	"weakmodels/internal/enc"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// snapshotVersion is the binary format version of MarshalBinary.
const snapshotVersion = 1

// FlightMessage is one queued message: the payload and the step it was
// sent at (schedules age in-flight messages by it). Born shares the step
// budget's type: the dilation-scaled default budget (and any explicit
// MaxRounds) is an int, and a narrower stamp would silently wrap the
// schedules' age accounting (View.OldestBorn) on large sweeps.
type FlightMessage struct {
	Msg  machine.Message
	Born int
}

// Snapshot is the complete execution state of a run at the end of step
// Step. Slices are fully owned by the snapshot (restoring never aliases
// them, so one snapshot can seed many runs — which is what bisection
// does). States are shared, not deep-copied: machine states are immutable
// by the Machine contract (Step is pure).
type Snapshot struct {
	// Step is the step (async) or round (sync) this snapshot was taken at
	// the end of.
	Step int
	// Sync marks a synchronous-executor snapshot (seq/pool); async
	// snapshots resume only on the async executor and vice versa.
	Sync bool

	// Per-node execution state.
	States  []machine.State
	Halted  []bool
	Outputs []machine.Output

	// Async executor state: fire counts, the liveness mask (nil when no
	// fault plan ran) and each link's queue, cut at its delivery cursor:
	// Mail[l] is the delivered, unconsumed part and Flight[l] the part
	// still in flight, both oldest first.
	Fires  []int64
	Alive  []bool
	Mail   [][]machine.Message
	Flight [][]FlightMessage

	// Sync executor state: the current arena half in locality-slot order
	// (the messages the next round consumes) and their byte count.
	Inbox   []machine.Message
	Pending int64

	// Result counters accumulated through Step.
	MessageBytes int64
	Drops        int64
	Dups         int64
	Crashes      int64
	Recoveries   int64
	Corruptions  int64
	Retransmits  int64
	Healed       int64

	// Opaque mid-run state of the schedule and fault generators
	// (schedule.Resumable), empty when the generator is stateless after
	// Begin or absent.
	SchedState []byte
	PlanState  []byte
}

// CheckpointOptions ask a run to emit snapshots while it executes.
type CheckpointOptions struct {
	// Every is the snapshot cadence in steps (≥ 1): a snapshot is taken at
	// the end of every step divisible by it, after the step's journal
	// events are flushed, so a resumed run's journal is exactly the
	// original's suffix.
	Every int
	// Sink receives each snapshot. The run owns nothing in it afterwards.
	// A non-nil error aborts the run — a checkpoint that cannot be kept is
	// treated like a journal that cannot be written.
	Sink func(*Snapshot) error
}

// genState captures a generator's mid-run state when it is resumable.
func genState(gen any) []byte {
	if r, ok := gen.(schedule.Resumable); ok {
		return r.SnapshotState()
	}
	return nil
}

// restoreGenState hands a snapshot's generator blob back to the
// generator. The pairing must be exact in both directions: state recorded
// but not restorable (or needed but not recorded) means the resume was
// given a different spec than the snapshot was taken under.
func restoreGenState(gen any, blob []byte, what string) error {
	r, ok := gen.(schedule.Resumable)
	switch {
	case len(blob) == 0 && !ok:
		return nil
	case len(blob) == 0:
		return fmt.Errorf("engine: resume snapshot carries no %s state but %T needs it", what, gen)
	case !ok:
		return fmt.Errorf("engine: resume snapshot carries %s state but %T cannot restore it", what, gen)
	default:
		if err := r.RestoreState(blob); err != nil {
			return fmt.Errorf("engine: restore %s state: %w", what, err)
		}
		return nil
	}
}

// capture snapshots an async run at the end of step t. healed is the
// healer's cumulative count (0 without one); res holds the counters.
func (as *asyncState) capture(t int, res *Result, healed int64, sched schedule.Schedule) *Snapshot {
	links := len(as.queues)
	snap := &Snapshot{
		Step:         t,
		States:       append([]machine.State(nil), as.states...),
		Halted:       append([]bool(nil), as.halted...),
		Outputs:      append([]machine.Output(nil), as.outputs...),
		Fires:        append([]int64(nil), as.fires...),
		Mail:         make([][]machine.Message, links),
		Flight:       make([][]FlightMessage, links),
		MessageBytes: res.MessageBytes,
		Drops:        res.Drops,
		Dups:         res.Dups,
		Crashes:      res.Crashes,
		Recoveries:   res.Recoveries,
		Corruptions:  res.Corruptions,
		Retransmits:  res.Retransmits,
		Healed:       healed,
		SchedState:   genState(sched),
	}
	if as.alive != nil {
		snap.Alive = append([]bool(nil), as.alive...)
	}
	if as.plan != nil {
		snap.PlanState = genState(as.plan)
	}
	for l := range as.queues {
		q := &as.queues[l]
		if n := q.mail(); n > 0 {
			snap.Mail[l] = make([]machine.Message, n)
			for i, fm := range q.buf[q.head:q.dlv] {
				snap.Mail[l][i] = fm.Msg
			}
		}
		if q.inFlight() > 0 {
			snap.Flight[l] = append([]FlightMessage(nil), q.buf[q.dlv:]...)
		}
	}
	return snap
}

// restore loads an async snapshot into a freshly initialised state and
// returns the active (non-halted) node count. Queue contents are copied —
// never aliased — so the snapshot survives to seed further runs.
func (as *asyncState) restore(snap *Snapshot, res *Result) (int, error) {
	n, links := len(as.states), len(as.queues)
	if snap.Sync {
		return 0, fmt.Errorf("engine: cannot resume the async executor from a synchronous snapshot")
	}
	if len(snap.States) != n || len(snap.Halted) != n || len(snap.Outputs) != n || len(snap.Fires) != n {
		return 0, fmt.Errorf("engine: snapshot is for %d nodes, run has %d", len(snap.States), n)
	}
	if len(snap.Mail) != links || len(snap.Flight) != links {
		return 0, fmt.Errorf("engine: snapshot is for %d links, run has %d", len(snap.Mail), links)
	}
	if snap.Alive != nil && len(snap.Alive) != n {
		return 0, fmt.Errorf("engine: snapshot liveness mask covers %d nodes, run has %d", len(snap.Alive), n)
	}
	if snap.Step < 1 {
		return 0, fmt.Errorf("engine: snapshot step %d is not a completed step", snap.Step)
	}
	copy(as.states, snap.States)
	copy(as.halted, snap.Halted)
	copy(as.outputs, snap.Outputs)
	copy(as.fires, snap.Fires)
	if snap.Alive != nil && as.alive != nil {
		copy(as.alive, snap.Alive)
	}
	clear(as.ready)
	for l := range as.queues {
		q := &as.queues[l]
		q.buf, q.head, q.dlv = q.buf[:0], 0, len(snap.Mail[l])
		for _, m := range snap.Mail[l] {
			q.buf = append(q.buf, FlightMessage{Msg: m})
		}
		q.buf = append(q.buf, snap.Flight[l]...)
		if q.mail() > 0 {
			as.ready[as.node[l]]++
		}
	}
	res.MessageBytes = snap.MessageBytes
	res.Drops, res.Dups = snap.Drops, snap.Dups
	res.Crashes, res.Recoveries = snap.Crashes, snap.Recoveries
	res.Corruptions, res.Retransmits = snap.Corruptions, snap.Retransmits
	active := 0
	for v := 0; v < n; v++ {
		if !as.halted[v] {
			active++
		}
	}
	return active, nil
}

// capture snapshots a synchronous run at the end of the given round,
// after the arena swap: Inbox is the arena half the next round consumes,
// pending its byte count.
func (rs *runState) capture(round int, res *Result, pending int64) *Snapshot {
	return &Snapshot{
		Step:         round,
		Sync:         true,
		States:       append([]machine.State(nil), rs.states...),
		Halted:       append([]bool(nil), rs.halted...),
		Outputs:      append([]machine.Output(nil), rs.outputs...),
		Inbox:        append([]machine.Message(nil), rs.cur...),
		Pending:      pending,
		MessageBytes: res.MessageBytes,
	}
}

// restore loads a synchronous snapshot and returns the active node count.
// haltAge restarts at 0: the only effect is that long-halted nodes write
// m0 into arena slots that already read as m0, which no round observes.
func (rs *runState) restore(snap *Snapshot, res *Result) (int, error) {
	n := len(rs.states)
	if !snap.Sync {
		return 0, fmt.Errorf("engine: cannot resume a synchronous executor from an async snapshot")
	}
	if len(snap.States) != n || len(snap.Halted) != n || len(snap.Outputs) != n {
		return 0, fmt.Errorf("engine: snapshot is for %d nodes, run has %d", len(snap.States), n)
	}
	if len(snap.Inbox) != len(rs.cur) {
		return 0, fmt.Errorf("engine: snapshot arena has %d slots, run has %d", len(snap.Inbox), len(rs.cur))
	}
	if snap.Step < 1 {
		return 0, fmt.Errorf("engine: snapshot step %d is not a completed round", snap.Step)
	}
	copy(rs.states, snap.States)
	copy(rs.halted, snap.Halted)
	copy(rs.outputs, snap.Outputs)
	copy(rs.cur, snap.Inbox)
	res.MessageBytes = snap.MessageBytes
	active := 0
	for v := 0; v < n; v++ {
		if !rs.halted[v] {
			active++
		}
	}
	return active, nil
}

// MarshalBinary encodes the snapshot in the compact versioned binary
// form. Node states go through encoding/gob, so they must be gob-encodable
// (one concrete type, exported fields); everything else is varint-framed.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	n := len(s.States)
	if len(s.Halted) != n || len(s.Outputs) != n {
		return nil, fmt.Errorf("engine: inconsistent snapshot: %d states, %d halt flags, %d outputs",
			n, len(s.Halted), len(s.Outputs))
	}
	b := []byte{snapshotVersion}
	b = enc.Bool(b, s.Sync)
	b = enc.Int(b, s.Step)
	b = enc.Uvarint(b, uint64(n))
	var sb bytes.Buffer
	genc := gob.NewEncoder(&sb)
	for v := 0; v < n; v++ {
		if err := genc.EncodeValue(reflect.ValueOf(s.States[v])); err != nil {
			return nil, fmt.Errorf("engine: snapshot state of node %d (%T): %w", v, s.States[v], err)
		}
	}
	b = enc.Bytes(b, sb.Bytes())
	for v := 0; v < n; v++ {
		b = enc.Bool(b, s.Halted[v])
	}
	for v := 0; v < n; v++ {
		b = enc.String(b, s.Outputs[v])
	}
	b = enc.Bool(b, s.Fires != nil)
	for _, f := range s.Fires {
		b = enc.Varint(b, f)
	}
	b = enc.Bool(b, s.Alive != nil)
	for _, a := range s.Alive {
		b = enc.Bool(b, a)
	}
	b = enc.Uvarint(b, uint64(len(s.Mail)))
	for _, q := range s.Mail {
		b = enc.Uvarint(b, uint64(len(q)))
		for _, m := range q {
			b = enc.String(b, m)
		}
	}
	b = enc.Uvarint(b, uint64(len(s.Flight)))
	for _, q := range s.Flight {
		b = enc.Uvarint(b, uint64(len(q)))
		for _, fm := range q {
			b = enc.String(b, fm.Msg)
			b = enc.Int(b, fm.Born)
		}
	}
	b = enc.Bool(b, s.Inbox != nil)
	if s.Inbox != nil {
		b = enc.Uvarint(b, uint64(len(s.Inbox)))
		for _, m := range s.Inbox {
			b = enc.String(b, m)
		}
	}
	b = enc.Varint(b, s.Pending)
	b = enc.Varint(b, s.MessageBytes)
	b = enc.Varint(b, s.Drops)
	b = enc.Varint(b, s.Dups)
	b = enc.Varint(b, s.Crashes)
	b = enc.Varint(b, s.Recoveries)
	b = enc.Varint(b, s.Corruptions)
	b = enc.Varint(b, s.Retransmits)
	b = enc.Varint(b, s.Healed)
	b = enc.Bytes(b, s.SchedState)
	b = enc.Bytes(b, s.PlanState)
	return b, nil
}

// UnmarshalSnapshot decodes a MarshalBinary snapshot taken from a run of
// machine m on the numbering p; the machine supplies the state type
// template for the gob stream (via Init, per node degree).
func UnmarshalSnapshot(data []byte, m machine.Machine, p *port.Numbering) (*Snapshot, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("engine: empty snapshot")
	}
	if data[0] != snapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, this build reads %d", data[0], snapshotVersion)
	}
	g := p.Graph()
	rd := enc.NewReader(data[1:])
	s := &Snapshot{}
	s.Sync = rd.Bool()
	s.Step = rd.Int()
	n := int(rd.Uvarint())
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if n != g.N() {
		return nil, fmt.Errorf("engine: snapshot is for %d nodes, graph has %d", n, g.N())
	}
	stateBytes := rd.Bytes()
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	gdec := gob.NewDecoder(bytes.NewReader(stateBytes))
	s.States = make([]machine.State, n)
	for v := 0; v < n; v++ {
		tmpl := m.Init(g.Degree(v))
		if tmpl == nil {
			return nil, fmt.Errorf("engine: machine %q has no state template for node %d", m.Name(), v)
		}
		rv := reflect.New(reflect.TypeOf(tmpl)).Elem()
		if err := gdec.DecodeValue(rv); err != nil {
			return nil, fmt.Errorf("engine: decode state of node %d: %w", v, err)
		}
		s.States[v] = rv.Interface()
	}
	s.Halted = make([]bool, n)
	for v := 0; v < n; v++ {
		s.Halted[v] = rd.Bool()
	}
	s.Outputs = make([]machine.Output, n)
	for v := 0; v < n; v++ {
		s.Outputs[v] = rd.String()
	}
	if rd.Bool() {
		s.Fires = make([]int64, n)
		for v := 0; v < n; v++ {
			s.Fires[v] = rd.Varint()
		}
	}
	if rd.Bool() {
		s.Alive = make([]bool, n)
		for v := 0; v < n; v++ {
			s.Alive[v] = rd.Bool()
		}
	}
	// Every container length below is checked against either the topology
	// or the remaining byte count (each element costs ≥ 1 byte), so a
	// corrupt length cannot provoke an attacker-sized allocation.
	ports := p.Routes().NumPorts()
	if links := int(rd.Uvarint()); rd.Err() == nil && links > 0 {
		if links != ports {
			return nil, fmt.Errorf("engine: snapshot has %d mail links, numbering has %d ports", links, ports)
		}
		s.Mail = make([][]machine.Message, links)
		for l := 0; l < links && rd.Err() == nil; l++ {
			if k := int(rd.Uvarint()); k > 0 && rd.Err() == nil {
				if k > rd.Len() {
					return nil, fmt.Errorf("engine: snapshot mail queue %d claims %d entries, %d bytes left", l, k, rd.Len())
				}
				q := make([]machine.Message, k)
				for i := range q {
					q[i] = rd.String()
				}
				s.Mail[l] = q
			}
		}
	}
	if links := int(rd.Uvarint()); rd.Err() == nil && links > 0 {
		if links != ports {
			return nil, fmt.Errorf("engine: snapshot has %d flight links, numbering has %d ports", links, ports)
		}
		s.Flight = make([][]FlightMessage, links)
		for l := 0; l < links && rd.Err() == nil; l++ {
			if k := int(rd.Uvarint()); k > 0 && rd.Err() == nil {
				if k > rd.Len() {
					return nil, fmt.Errorf("engine: snapshot flight queue %d claims %d entries, %d bytes left", l, k, rd.Len())
				}
				q := make([]FlightMessage, k)
				for i := range q {
					q[i] = FlightMessage{Msg: rd.String(), Born: rd.Int()}
				}
				s.Flight[l] = q
			}
		}
	}
	if rd.Bool() {
		k := int(rd.Uvarint())
		if rd.Err() == nil && k != ports {
			return nil, fmt.Errorf("engine: snapshot arena has %d slots, numbering has %d ports", k, ports)
		}
		if rd.Err() == nil {
			s.Inbox = make([]machine.Message, k)
			for i := range s.Inbox {
				s.Inbox[i] = rd.String()
			}
		}
	}
	s.Pending = rd.Varint()
	s.MessageBytes = rd.Varint()
	s.Drops = rd.Varint()
	s.Dups = rd.Varint()
	s.Crashes = rd.Varint()
	s.Recoveries = rd.Varint()
	s.Corruptions = rd.Varint()
	s.Retransmits = rd.Varint()
	s.Healed = rd.Varint()
	s.SchedState = append([]byte(nil), rd.Bytes()...)
	s.PlanState = append([]byte(nil), rd.Bytes()...)
	if err := rd.Close(); err != nil {
		return nil, fmt.Errorf("engine: snapshot decode: %w", err)
	}
	if len(s.SchedState) == 0 {
		s.SchedState = nil
	}
	if len(s.PlanState) == 0 {
		s.PlanState = nil
	}
	return s, nil
}
