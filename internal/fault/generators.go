package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"weakmodels/internal/enc"
	"weakmodels/internal/xrand"
)

// resumable mirrors schedule.Resumable structurally (the engine asserts
// the shape, not the named type), so the fault package does not need to
// import the schedule package just to name the interface. Plans that are
// stateless after Begin (CrashAt is regenerated by Begin; so is the
// partition's cut) only implement it when they also hold RNG cursors,
// event flags, or observations of the run.
type resumable interface {
	SnapshotState() []byte
	RestoreState(b []byte) error
}

// DefaultHorizon is the step horizon of the seeded generators: faults are
// injected at steps 1..DefaultHorizon and the plan is settled afterwards.
// Transient (finite-horizon) plans are what make the self-stabilisation
// story well defined — convergence is demanded after the faults cease.
const DefaultHorizon = 512

// Drop returns the seeded plan that, while active, replaces each delivered
// message independently with probability p by m0 (see the package comment
// for why omission delivers m0 rather than starving the link).
func Drop(seed int64, p float64) Plan { return DropFor(seed, p, DefaultHorizon) }

// DropFor is Drop with an explicit fault horizon in steps.
func DropFor(seed int64, p float64, horizon int) Plan {
	return newMsgFaults("drop", FateDrop, seed, p, horizon)
}

// Dup returns the seeded plan that, while active, duplicates each delivered
// message independently with probability p.
func Dup(seed int64, p float64) Plan { return DupFor(seed, p, DefaultHorizon) }

// DupFor is Dup with an explicit fault horizon in steps.
func DupFor(seed int64, p float64, horizon int) Plan {
	return newMsgFaults("dup", FateDup, seed, p, horizon)
}

// msgFaults injects independent per-delivery message faults up to a horizon.
type msgFaults struct {
	kind    string
	fate    Fate
	seed    int64
	p       float64
	horizon int
	src     *xrand.Source
	last    int
}

func newMsgFaults(kind string, fate Fate, seed int64, p float64, horizon int) *msgFaults {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	return &msgFaults{kind: kind, fate: fate, seed: seed, p: p, horizon: horizon}
}

func (f *msgFaults) Name() string { return fmt.Sprintf("%s:%g", f.kind, f.p) }

func (f *msgFaults) Begin(top Topology) {
	f.src = xrand.NewSource(f.seed)
	f.last = 0
}

func (f *msgFaults) SnapshotState() []byte {
	b := enc.Varint(nil, int64(f.last))
	return enc.Varint(b, f.src.Cursor())
}

func (f *msgFaults) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	last, cursor := rd.Int(), rd.Varint()
	if err := rd.Close(); err != nil {
		return fmt.Errorf("%s plan state: %w", f.kind, err)
	}
	f.last = last
	f.src.SeekTo(cursor)
	return nil
}

func (f *msgFaults) Step(t int, view View, dec *Decision) { f.last = t }

func (f *msgFaults) Filter(t int, link int) Fate {
	if t > f.horizon {
		return FateDeliver
	}
	if f.src.Float64() < f.p {
		return f.fate
	}
	return FateDeliver
}

func (f *msgFaults) Settled() bool { return f.last >= f.horizon }

// crashEvent is one scheduled crash, with an optional recovery.
type crashEvent struct {
	victim  int
	at      int // crash step
	up      int // recovery step; 0 = never
	kind    RecoverKind
	crashed bool
	revived bool
}

// crashPlan injects a seeded sequence of non-overlapping crash events.
type crashPlan struct {
	name    string
	seed    int64
	k       int
	kind    RecoverKind // RecoverNone = crash-stop
	horizon int

	// fixed, when non-nil, overrides the seeded event generation (CrashAt).
	fixed []crashEvent

	events    []crashEvent
	lastEvent int
	last      int
}

// CrashStop returns the seeded plan that permanently crashes k random
// nodes at seeded steps within the default horizon. A crashed node stops
// computing; its frontier keeps draining and it emits m0, so neighbours
// observe silence rather than wedging.
func CrashStop(seed int64, k int) Plan { return CrashStopFor(seed, k, DefaultHorizon) }

// CrashStopFor is CrashStop with an explicit horizon.
func CrashStopFor(seed int64, k, horizon int) Plan {
	return newCrashPlan("crashstop", seed, k, RecoverNone, horizon)
}

// CrashRecover returns the seeded plan that crashes k random nodes at
// seeded steps and revives each after a seeded downtime. With reset the
// recovery resets the node to its initial state via the machine (the
// transient memory-loss fault; machines with stable storage can override
// the reboot state through machine.Rebooter); without reset the node
// resumes its frozen state, having missed the messages its frontier
// drained while it was down.
func CrashRecover(seed int64, k int, reset bool) Plan {
	return CrashRecoverFor(seed, k, reset, DefaultHorizon)
}

// CrashRecoverFor is CrashRecover with an explicit horizon.
func CrashRecoverFor(seed int64, k int, reset bool, horizon int) Plan {
	name, kind := "pause", RecoverResume
	if reset {
		name, kind = "crash", RecoverReset
	}
	return newCrashPlan(name, seed, k, kind, horizon)
}

// CrashAt returns the deterministic plan that crashes one explicit victim
// at one explicit step, reviving it after down steps (down ≤ 0 crashes it
// forever). It is the unit-test and bisection form of the crash plans.
func CrashAt(victim, at, down int, kind RecoverKind) Plan {
	if at < 1 {
		at = 1
	}
	ev := crashEvent{victim: victim, at: at, kind: kind}
	if down > 0 && kind != RecoverNone {
		ev.up = at + down
	} else {
		ev.kind = RecoverNone
	}
	return &crashPlan{
		name:  fmt.Sprintf("crashat:%d@%d", victim, at),
		fixed: []crashEvent{ev},
	}
}

func newCrashPlan(name string, seed int64, k int, kind RecoverKind, horizon int) *crashPlan {
	if k < 0 {
		k = 0
	}
	if horizon < 1 {
		horizon = 1
	}
	return &crashPlan{name: name, seed: seed, k: k, kind: kind, horizon: horizon}
}

func (c *crashPlan) Name() string {
	if c.fixed != nil {
		return c.name
	}
	return fmt.Sprintf("%s:%d", c.name, c.k)
}

func (c *crashPlan) Begin(top Topology) {
	c.last = 0
	if c.fixed != nil {
		c.events = append(c.events[:0], c.fixed...)
	} else {
		c.events = c.seededEvents(top, nil)
	}
	c.lastEvent = 0
	for _, ev := range c.events {
		if ev.at > c.lastEvent {
			c.lastEvent = ev.at
		}
		if ev.up > c.lastEvent {
			c.lastEvent = ev.up
		}
	}
}

// seededEvents draws k non-overlapping crash events: crash steps are spread
// across the horizon in increasing order, each event fully ends (recovery
// inclusive) before the next begins, so composed bookkeeping stays simple
// and the fault burst is over by a bounded step. victims, when non-nil,
// fixes the victim sequence (the adversary's high-degree targets); nil
// draws victims uniformly.
func (c *crashPlan) seededEvents(top Topology, victims []int) []crashEvent {
	n := top.Nodes()
	if n == 0 || c.k == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.seed))
	gap := c.horizon / (c.k + 1)
	if gap < 2 {
		gap = 2
	}
	down := gap / 2
	if down < 1 {
		down = 1
	}
	events := make([]crashEvent, 0, c.k)
	next := 1
	for i := 0; i < c.k; i++ {
		ev := crashEvent{at: next + rng.Intn(gap), kind: c.kind}
		if victims != nil {
			ev.victim = victims[i%len(victims)]
		} else {
			ev.victim = rng.Intn(n)
		}
		if c.kind != RecoverNone {
			ev.up = ev.at + 1 + rng.Intn(down)
			next = ev.up + 1
		} else {
			next = ev.at + 1
		}
		// Clamp into the horizon: the documented contract is that every
		// fault happens at steps 1..horizon. The accumulated spacing can
		// overshoot for late events, which then compress toward the end —
		// an at==up event is a reboot blip (crash and recovery applied in
		// the same step).
		if ev.at > c.horizon {
			ev.at = c.horizon
		}
		if ev.up > c.horizon {
			ev.up = c.horizon
		}
		events = append(events, ev)
	}
	return events
}

// SnapshotState records which events have fired; the events themselves
// are regenerated identically by Begin, so only the flags travel.
func (c *crashPlan) SnapshotState() []byte {
	b := enc.Varint(nil, int64(c.last))
	b = enc.Uvarint(b, uint64(len(c.events)))
	for i := range c.events {
		var flags byte
		if c.events[i].crashed {
			flags |= 1
		}
		if c.events[i].revived {
			flags |= 2
		}
		b = enc.Uvarint(b, uint64(flags))
	}
	return b
}

func (c *crashPlan) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	last := rd.Int()
	count := rd.Uvarint()
	if rd.Err() == nil && count != uint64(len(c.events)) {
		return fmt.Errorf("%s plan state: %d event flags for %d events", c.name, count, len(c.events))
	}
	flags := make([]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		flags = append(flags, byte(rd.Uvarint()))
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("%s plan state: %w", c.name, err)
	}
	c.last = last
	for i := range c.events {
		c.events[i].crashed = flags[i]&1 != 0
		c.events[i].revived = flags[i]&2 != 0
	}
	return nil
}

func (c *crashPlan) Step(t int, view View, dec *Decision) {
	c.last = t
	for i := range c.events {
		ev := &c.events[i]
		if !ev.crashed && t >= ev.at {
			ev.crashed = true
			dec.Crash[ev.victim] = true
		}
		if ev.crashed && !ev.revived && ev.up > 0 && t >= ev.up {
			ev.revived = true
			dec.Recover[ev.victim] = ev.kind
		}
	}
}

func (c *crashPlan) Filter(t int, link int) Fate { return FateDeliver }

func (c *crashPlan) Settled() bool { return c.last >= c.lastEvent }

// Adversary returns the seeded plan that spends its fault budget on the
// highest-degree nodes: it cycles budget crash-reset events over the top
// max(1, budget/2) hubs (ties broken by node id, so a star's centre eats
// the whole budget) and, while active, drops messages on links incident to
// those hubs with probability ¼. Hubs are where information concentrates —
// preferential-attachment graphs route most gossip through them — so this
// is the adversary that a fault-tolerance claim has to survive first.
func Adversary(seed int64, budget int) Plan { return AdversaryFor(seed, budget, DefaultHorizon) }

// AdversaryFor is Adversary with an explicit horizon.
func AdversaryFor(seed int64, budget, horizon int) Plan {
	if budget < 1 {
		budget = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	return &adversaryPlan{seed: seed, budget: budget, horizon: horizon}
}

// adversaryHubDropP is the omission probability on hub-incident links while
// the adversary is active.
const adversaryHubDropP = 0.25

type adversaryPlan struct {
	seed    int64
	budget  int
	horizon int

	crashes *crashPlan
	hubLink []bool
	src     *xrand.Source
	last    int
}

func (a *adversaryPlan) Name() string { return fmt.Sprintf("adversary:%d", a.budget) }

func (a *adversaryPlan) Begin(top Topology) {
	a.last = 0
	a.src = xrand.NewSource(a.seed)
	n := top.Nodes()
	targets := make([]int, n)
	for v := range targets {
		targets[v] = v
	}
	sort.SliceStable(targets, func(i, j int) bool {
		di, dj := top.Degree(targets[i]), top.Degree(targets[j])
		if di != dj {
			return di > dj
		}
		return targets[i] < targets[j]
	})
	if hubs := max(1, a.budget/2); len(targets) > hubs {
		targets = targets[:hubs]
	}
	a.crashes = newCrashPlan("adversary", a.seed+1, min(a.budget, n), RecoverReset, a.horizon)
	if n > 0 {
		a.crashes.events = a.crashes.seededEvents(top, targets)
	} else {
		a.crashes.events = nil
	}
	a.crashes.lastEvent = 0
	for _, ev := range a.crashes.events {
		a.crashes.lastEvent = max(a.crashes.lastEvent, ev.at, ev.up)
	}
	a.hubLink = make([]bool, top.Links())
	isTarget := make([]bool, n)
	for _, v := range targets {
		isTarget[v] = true
	}
	for l := range a.hubLink {
		a.hubLink[l] = isTarget[top.LinkSrc(l)] || isTarget[top.LinkDst(l)]
	}
}

func (a *adversaryPlan) Step(t int, view View, dec *Decision) {
	a.last = t
	a.crashes.Step(t, view, dec)
}

func (a *adversaryPlan) Filter(t int, link int) Fate {
	if t > a.horizon || !a.hubLink[link] {
		return FateDeliver
	}
	if a.src.Float64() < adversaryHubDropP {
		return FateDrop
	}
	return FateDeliver
}

func (a *adversaryPlan) Settled() bool {
	return a.last >= a.horizon && a.crashes.Settled()
}

func (a *adversaryPlan) SnapshotState() []byte {
	b := enc.Varint(nil, int64(a.last))
	b = enc.Varint(b, a.src.Cursor())
	return enc.Bytes(b, a.crashes.SnapshotState())
}

func (a *adversaryPlan) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	last, cursor := rd.Int(), rd.Varint()
	nested := rd.Bytes()
	if err := rd.Close(); err != nil {
		return fmt.Errorf("adversary plan state: %w", err)
	}
	a.last = last
	a.src.SeekTo(cursor)
	return a.crashes.RestoreState(nested)
}

// Byzantine returns the seeded plan that, while active, corrupts each
// delivered message independently with probability p: the payload is
// rewritten by a seeded corruptor drawn per corruption — a single bit
// flip, a swap with m0 (corruption to silence), or a replay of the
// previous payload corrupted away on the same link. See FateCorrupt for
// the delivery semantics and machine.MessageGuard for how receivers
// tolerate the garbage.
func Byzantine(seed int64, p float64) Plan { return ByzantineFor(seed, p, DefaultHorizon) }

// ByzantineFor is Byzantine with an explicit fault horizon in steps.
func ByzantineFor(seed int64, p float64, horizon int) Plan {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	return &byzantinePlan{seed: seed, p: p, horizon: horizon}
}

type byzantinePlan struct {
	seed    int64
	p       float64
	horizon int

	src  *xrand.Source
	rng  *rand.Rand // src for Corrupt's Intn draws
	prev []string   // per link: the last genuine payload displaced by a corruption
	last int
}

func (b *byzantinePlan) Name() string { return fmt.Sprintf("byzantine:%g", b.p) }

func (b *byzantinePlan) Begin(top Topology) {
	b.src = xrand.NewSource(b.seed)
	b.rng = rand.New(b.src)
	b.prev = make([]string, top.Links())
	b.last = 0
}

// SnapshotState carries the displaced-payload memory alongside the RNG
// cursor: a replay corruption after resume must re-deliver the same stale
// payload the uninterrupted run would have.
func (b *byzantinePlan) SnapshotState() []byte {
	buf := enc.Varint(nil, int64(b.last))
	buf = enc.Varint(buf, b.src.Cursor())
	buf = enc.Uvarint(buf, uint64(len(b.prev)))
	for _, s := range b.prev {
		buf = enc.String(buf, s)
	}
	return buf
}

func (b *byzantinePlan) RestoreState(blob []byte) error {
	rd := enc.NewReader(blob)
	last, cursor := rd.Int(), rd.Varint()
	count := rd.Uvarint()
	if rd.Err() == nil && count != uint64(len(b.prev)) {
		return fmt.Errorf("byzantine plan state: %d payloads for %d links", count, len(b.prev))
	}
	prev := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		prev = append(prev, rd.String())
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("byzantine plan state: %w", err)
	}
	b.last = last
	b.src.SeekTo(cursor)
	copy(b.prev, prev)
	return nil
}

func (b *byzantinePlan) Step(t int, view View, dec *Decision) { b.last = t }

func (b *byzantinePlan) Filter(t int, link int) Fate {
	if t > b.horizon {
		return FateDeliver
	}
	if b.src.Float64() < b.p {
		return FateCorrupt
	}
	return FateDeliver
}

// Corrupt rewrites msg with one of three seeded corruptors. The displaced
// genuine payload is remembered per link so a later replay corruption can
// re-deliver it stale. Every branch is a deterministic function of the
// (seeded) RNG stream and the genuine payload, so replays stay
// bit-identical.
func (b *byzantinePlan) Corrupt(t int, link int, msg string) string {
	defer func() { b.prev[link] = msg }()
	switch b.rng.Intn(3) {
	case 0: // bit flip — on m0, fabricate a junk byte (noise from silence)
		if msg == "" {
			return string([]byte{byte(33 + b.rng.Intn(94))})
		}
		buf := []byte(msg)
		buf[b.rng.Intn(len(buf))] ^= 1 << uint(b.rng.Intn(8))
		return string(buf)
	case 1: // swap with m0 — corruption to silence
		return ""
	default: // replay of the previously displaced payload (m0 if none)
		return b.prev[link]
	}
}

func (b *byzantinePlan) Settled() bool { return b.last >= b.horizon }

// Partition returns the seeded plan that cuts a seeded island of k nodes
// from the rest of the graph and heals the cut at a seeded step in the
// upper half of the default horizon. The cut is correlated per-link
// omission: every message crossing the boundary is delivered as m0 in
// both directions, so partitioned Kahn frontiers still see one delivery
// per in-port and never starve, while no information crosses until the
// heal. Healed cut links are reported through the Healer interface.
func Partition(seed int64, k int) Plan { return PartitionFor(seed, k, DefaultHorizon) }

// PartitionFor is Partition with an explicit horizon; the heal step is
// drawn from the upper half of the horizon, so the plan is settled (and
// fixpoint detection unblocked) from the heal onward.
func PartitionFor(seed int64, k, horizon int) Plan {
	if k < 1 {
		k = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	return &partitionPlan{seed: seed, k: k, horizon: horizon}
}

type partitionPlan struct {
	seed    int64
	k       int
	horizon int

	cut      []bool
	cutCount int
	healAt   int
	healed   int64
	last     int
}

func (p *partitionPlan) Name() string { return fmt.Sprintf("partition:%d", p.k) }

func (p *partitionPlan) Begin(top Topology) {
	p.last = 0
	p.healed = 0
	rng := rand.New(rand.NewSource(p.seed))
	upper := p.horizon - p.horizon/2
	p.healAt = p.horizon/2 + 1 + rng.Intn(max(1, upper))
	if p.healAt > p.horizon {
		p.healAt = p.horizon
	}
	n := top.Nodes()
	p.cut = make([]bool, top.Links())
	p.cutCount = 0
	if n < 2 {
		return
	}
	// Grow the island by BFS from a seeded root, visiting out-neighbours in
	// global link order, so the cut is a connected chunk of the graph (the
	// realistic shape of a network partition) and fully seed-deterministic.
	adj := make([][]int, n)
	for l := 0; l < top.Links(); l++ {
		src := top.LinkSrc(l)
		adj[src] = append(adj[src], top.LinkDst(l))
	}
	size := min(p.k, n-1)
	island := make([]bool, n)
	queue := []int{rng.Intn(n)}
	island[queue[0]] = true
	got := 1
	for len(queue) > 0 && got < size {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if island[w] || got >= size {
				continue
			}
			island[w] = true
			got++
			queue = append(queue, w)
		}
	}
	for l := range p.cut {
		if island[top.LinkSrc(l)] != island[top.LinkDst(l)] {
			p.cut[l] = true
			p.cutCount++
		}
	}
}

func (p *partitionPlan) Step(t int, view View, dec *Decision) {
	p.last = t
	if t >= p.healAt {
		p.healed = int64(p.cutCount)
	}
}

func (p *partitionPlan) Filter(t int, link int) Fate {
	if t >= p.healAt || !p.cut[link] {
		return FateDeliver
	}
	return FateDrop
}

// Healed reports how many cut links have been restored (all of them, once
// the heal step is reached).
func (p *partitionPlan) Healed() int64 { return p.healed }

func (p *partitionPlan) Settled() bool { return p.last >= p.healAt }

// SnapshotState: the cut and heal step are regenerated by Begin; only the
// step observations travel.
func (p *partitionPlan) SnapshotState() []byte {
	b := enc.Varint(nil, int64(p.last))
	return enc.Varint(b, p.healed)
}

func (p *partitionPlan) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	last, healed := rd.Int(), rd.Varint()
	if err := rd.Close(); err != nil {
		return fmt.Errorf("partition plan state: %w", err)
	}
	p.last, p.healed = last, healed
	return nil
}

// Retransmit returns the seeded plan that gives senders a bounded retry
// layer: when a node recovers from a crash, each of its in-links is
// scheduled for up to r retransmissions of the sender's current steady
// message, spread by seeded per-link backoff. The recovering node
// re-receives its frontier instead of waiting for neighbours to fire
// again, so it rejoins cleanly. On its own the plan injects nothing —
// compose it with a crash or pause plan. Backoff delays are drawn from
// the plan's RNG in ascending global link order, so seeded runs are
// reproducible.
func Retransmit(seed int64, r int) Plan { return RetransmitFor(seed, r, DefaultHorizon) }

// RetransmitFor is Retransmit with an explicit horizon; retransmissions
// scheduled past the horizon are clamped to it, so the plan settles with
// the horizon.
func RetransmitFor(seed int64, r, horizon int) Plan {
	if r < 1 {
		r = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	return &retransmitPlan{seed: seed, r: r, horizon: horizon}
}

// resendEvent is one scheduled retransmission.
type resendEvent struct {
	link int
	at   int
}

type retransmitPlan struct {
	seed    int64
	r       int
	horizon int

	src       *xrand.Source
	rng       *rand.Rand
	prevAlive []bool
	inLinks   [][]int // per node, its in-links in ascending global link order
	pending   []resendEvent
	last      int
}

func (r *retransmitPlan) Name() string { return fmt.Sprintf("retransmit:%d", r.r) }

func (r *retransmitPlan) Begin(top Topology) {
	r.src = xrand.NewSource(r.seed)
	r.rng = rand.New(r.src)
	r.last = 0
	r.pending = r.pending[:0]
	n := top.Nodes()
	r.prevAlive = make([]bool, n)
	for v := range r.prevAlive {
		r.prevAlive[v] = true
	}
	r.inLinks = make([][]int, n)
	for l := 0; l < top.Links(); l++ {
		dst := top.LinkDst(l)
		r.inLinks[dst] = append(r.inLinks[dst], l)
	}
}

func (r *retransmitPlan) Step(t int, view View, dec *Decision) {
	r.last = t
	n := len(r.prevAlive)
	// Observe recoveries (false→true transitions since the previous step)
	// and schedule the retry bursts, nodes ascending, links ascending, so
	// the RNG stream is consumed in a replay-stable order.
	for v := 0; v < n; v++ {
		alive := view.Alive(v)
		if alive && !r.prevAlive[v] && t <= r.horizon {
			for _, l := range r.inLinks[v] {
				at := t
				for i := 0; i < r.r; i++ {
					at += 1 + r.rng.Intn(2<<uint(i))
					if at > r.horizon {
						break
					}
					r.pending = append(r.pending, resendEvent{link: l, at: at})
				}
			}
		}
		r.prevAlive[v] = alive
	}
	// Fire the retransmissions due this step.
	kept := r.pending[:0]
	for _, ev := range r.pending {
		if ev.at <= t {
			dec.Resend[ev.link] = true
			continue
		}
		kept = append(kept, ev)
	}
	r.pending = kept
}

func (r *retransmitPlan) Filter(t int, link int) Fate { return FateDeliver }

func (r *retransmitPlan) Settled() bool {
	return r.last >= r.horizon && len(r.pending) == 0
}

// SnapshotState carries the liveness observations and the not-yet-due
// retry burst alongside the backoff RNG cursor.
func (r *retransmitPlan) SnapshotState() []byte {
	b := enc.Varint(nil, int64(r.last))
	b = enc.Varint(b, r.src.Cursor())
	b = enc.Uvarint(b, uint64(len(r.prevAlive)))
	for _, alive := range r.prevAlive {
		b = enc.Bool(b, alive)
	}
	b = enc.Uvarint(b, uint64(len(r.pending)))
	for _, ev := range r.pending {
		b = enc.Int(b, ev.link)
		b = enc.Int(b, ev.at)
	}
	return b
}

func (r *retransmitPlan) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	last, cursor := rd.Int(), rd.Varint()
	count := rd.Uvarint()
	if rd.Err() == nil && count != uint64(len(r.prevAlive)) {
		return fmt.Errorf("retransmit plan state: %d liveness bits for %d nodes", count, len(r.prevAlive))
	}
	alive := make([]bool, 0, count)
	for i := uint64(0); i < count; i++ {
		alive = append(alive, rd.Bool())
	}
	pending := make([]resendEvent, rd.Uvarint())
	for i := range pending {
		pending[i] = resendEvent{link: rd.Int(), at: rd.Int()}
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("retransmit plan state: %w", err)
	}
	r.last = last
	r.src.SeekTo(cursor)
	copy(r.prevAlive, alive)
	r.pending = append(r.pending[:0], pending...)
	return nil
}

// Compose combines plans into one: crash/recovery/retransmit requests are
// unioned and a delivery's fate is the worst any component assigns (drop
// beats corrupt beats dup beats deliver). Every component is consulted for
// every delivery, so each keeps its own deterministic random stream. When
// a corrupting component wins, the composite remembers it so the engine's
// follow-up Corrupt call reaches the right corruptor. Composing several
// crash plans is allowed but their downtimes may interleave on a shared
// victim; the engine resolves overlaps by ignoring redundant requests.
func Compose(plans ...Plan) Plan {
	flat := make([]Plan, 0, len(plans))
	for _, p := range plans {
		if p == nil {
			continue
		}
		if c, ok := p.(*composite); ok {
			flat = append(flat, c.plans...)
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	c := &composite{plans: flat}
	for _, p := range flat {
		if _, ok := p.(Corrupter); ok {
			c.canCorrupt = true
		}
	}
	return c
}

type composite struct {
	plans      []Plan
	canCorrupt bool
	// hit is the component whose FateCorrupt won the most recent Filter;
	// the engine's Corrupt follow-up happens immediately after Filter on
	// the same goroutine (see Corrupter), so a single slot suffices.
	hit Corrupter
}

func (c *composite) Name() string {
	names := make([]string, len(c.plans))
	for i, p := range c.plans {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

func (c *composite) Begin(top Topology) {
	c.hit = nil
	for _, p := range c.plans {
		p.Begin(top)
	}
}

func (c *composite) Step(t int, view View, dec *Decision) {
	for _, p := range c.plans {
		p.Step(t, view, dec)
	}
}

func (c *composite) Filter(t int, link int) Fate {
	worst := FateDeliver
	c.hit = nil
	for _, p := range c.plans {
		switch p.Filter(t, link) {
		case FateDrop:
			worst = FateDrop
		case FateCorrupt:
			if worst != FateDrop {
				worst = FateCorrupt
				c.hit = p.(Corrupter)
			}
		case FateDup:
			if worst == FateDeliver {
				worst = FateDup
			}
		}
	}
	if worst != FateCorrupt {
		c.hit = nil
	}
	return worst
}

// Corrupt delegates to the component whose FateCorrupt won the preceding
// Filter call.
func (c *composite) Corrupt(t int, link int, msg string) string {
	return c.hit.Corrupt(t, link, msg)
}

// Healed sums the healed-link counts of every partition component.
func (c *composite) Healed() int64 {
	var total int64
	for _, p := range c.plans {
		if h, ok := p.(Healer); ok {
			total += h.Healed()
		}
	}
	return total
}

func (c *composite) Settled() bool {
	for _, p := range c.plans {
		if !p.Settled() {
			return false
		}
	}
	return true
}

// SnapshotState concatenates each component's state blob length-prefixed,
// in composition order; components that are stateless after Begin
// contribute an empty blob. RestoreState pairs them back up by position,
// so it only works against the same composition — which is what the
// snapshot's recorded fault spec guarantees.
func (c *composite) SnapshotState() []byte {
	var b []byte
	b = enc.Uvarint(b, uint64(len(c.plans)))
	for _, p := range c.plans {
		if r, ok := p.(resumable); ok {
			b = enc.Bytes(b, r.SnapshotState())
		} else {
			b = enc.Bytes(b, nil)
		}
	}
	return b
}

func (c *composite) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	count := rd.Uvarint()
	if rd.Err() == nil && count != uint64(len(c.plans)) {
		return fmt.Errorf("composite plan state: %d blobs for %d components", count, len(c.plans))
	}
	blobs := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		blobs = append(blobs, rd.Bytes())
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("composite plan state: %w", err)
	}
	for i, p := range c.plans {
		r, ok := p.(resumable)
		switch {
		case len(blobs[i]) == 0 && !ok:
			// stateless component, nothing recorded — fine
		case len(blobs[i]) == 0 && ok:
			return fmt.Errorf("composite plan state: component %d (%s) needs state but none was recorded", i, p.Name())
		case !ok:
			return fmt.Errorf("composite plan state: component %d (%s) cannot restore recorded state", i, p.Name())
		default:
			if err := r.RestoreState(blobs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
