package schedule

import (
	"fmt"
	"math"
	"math/rand"

	"weakmodels/internal/enc"
	"weakmodels/internal/xrand"
)

// Synchronous returns the schedule of the paper's Section 1.3 semantics:
// every in-flight message is delivered and every node is activated at every
// step. Under it the async executor degenerates to one global round per
// step and is bit-identical to the sequential executor.
func Synchronous() Schedule { return synchronous{} }

type synchronous struct{}

func (synchronous) Name() string           { return "sync" }
func (synchronous) Begin(nodes, links int) {}
func (synchronous) Dilation(nodes int) int { return 1 }

func (synchronous) Step(t int, view View, dec *Decision) {
	dec.ActivateAll = true
	dec.DeliverAll = true
}

// RoundRobin returns the schedule that delivers every message immediately
// but activates exactly one node per step, cycling 0,1,…,n-1,0,… — the
// classic central daemon. A full cycle of n steps fires every node once,
// so a T-round synchronous algorithm halts within n·T steps.
func RoundRobin() Schedule { return &roundRobin{} }

type roundRobin struct{ nodes int }

func (r *roundRobin) Name() string           { return "roundrobin" }
func (r *roundRobin) Begin(nodes, links int) { r.nodes = nodes }
func (r *roundRobin) Dilation(nodes int) int { return nodes }

func (r *roundRobin) Step(t int, view View, dec *Decision) {
	dec.DeliverAll = true
	if r.nodes > 0 {
		dec.Activate[(t-1)%r.nodes] = true
	}
}

// RandomSubset returns the seeded schedule that, at every step, activates
// each node independently with probability p and flushes each link's
// in-flight queue independently with probability p. It is fair with
// probability 1 (every coin keeps being retossed); p is clamped to
// [0.05, 1] so a run cannot be starved outright.
func RandomSubset(seed int64, p float64) Schedule {
	if p < 0.05 {
		p = 0.05
	}
	if p > 1 {
		p = 1
	}
	return &randomSubset{seed: seed, p: p}
}

type randomSubset struct {
	seed int64
	p    float64
	src  *xrand.Source
	pick []bool // per link: this step's coin
}

func (r *randomSubset) Name() string { return fmt.Sprintf("random:%g", r.p) }

// Dilation: a round completes once every node has had its links flushed
// and then been activated — two successive geometric(p) waits, and the
// round waits for the slowest of n nodes, whose maximum concentrates
// around (ln n)/p. (2/p)·(ln n + 4) bounds the measured worst case with
// ample headroom (TestScheduleDilationBoundsMeasuredSteps); being a
// probabilistic schedule it has no hard worst case, so this is a
// high-probability tail bound, which is what budget scaling needs.
func (r *randomSubset) Dilation(nodes int) int {
	return int((2/r.p)*(math.Log(float64(nodes)+1)+4)) + 1
}

func (r *randomSubset) Begin(nodes, links int) {
	r.src = xrand.NewSource(r.seed)
	r.pick = make([]bool, links)
}

func (r *randomSubset) SnapshotState() []byte {
	return enc.Varint(nil, r.src.Cursor())
}

func (r *randomSubset) RestoreState(b []byte) error {
	rd := enc.NewReader(b)
	cursor := rd.Varint()
	if err := rd.Close(); err != nil {
		return fmt.Errorf("random schedule state: %w", err)
	}
	r.src.SeekTo(cursor)
	return nil
}

// Step draws the node coins, then the link coins, one word each in id
// order, and reads InFlight only for the picked links. The picks are
// compacted first, a block at a time, in a loop without a data-dependent
// branch: a fair coin is what branch prediction cannot learn.
//
//weakvet:noalloc
func (r *randomSubset) Step(t int, view View, dec *Decision) {
	r.src.Bools(dec.Activate[:view.Nodes()], r.p)
	pick := r.pick[:view.Links()]
	r.src.Bools(pick, r.p)
	var picked [256]int32
	for lo := 0; lo < len(pick); lo += len(picked) {
		n := 0
		for l, ok := range pick[lo:min(lo+len(picked), len(pick))] {
			picked[n] = int32(lo + l)
			if ok {
				n++
			}
		}
		for _, l := range picked[:n] {
			dec.Deliver[l] = int32(view.InFlight(int(l)))
		}
	}
}

// BoundedStaleness returns the seeded schedule that delivers every message
// immediately and activates a random subset of nodes under a hard lag cap:
// no node's fire count may exceed the slowest node's by more than k, and
// the slowest nodes are always activated. The cap is the bounded-staleness
// contract of asynchronous iteration schemes: every node computes state
// x_j for some j within k of every other node's.
func BoundedStaleness(seed int64, k int) Schedule {
	if k < 1 {
		k = 1
	}
	return &boundedStaleness{seed: seed, k: k}
}

type boundedStaleness struct {
	seed int64
	k    int
	src  *xrand.Source
}

func (b *boundedStaleness) Name() string { return fmt.Sprintf("staleness:%d", b.k) }

// Dilation: delivery is immediate and the slowest nodes are activated at
// every step, so the minimum fire count advances every couple of steps.
func (b *boundedStaleness) Dilation(nodes int) int { return 2 }

func (b *boundedStaleness) Begin(nodes, links int) {
	b.src = xrand.NewSource(b.seed)
}

func (b *boundedStaleness) SnapshotState() []byte {
	return enc.Varint(nil, b.src.Cursor())
}

func (b *boundedStaleness) RestoreState(blob []byte) error {
	rd := enc.NewReader(blob)
	cursor := rd.Varint()
	if err := rd.Close(); err != nil {
		return fmt.Errorf("staleness schedule state: %w", err)
	}
	b.src.SeekTo(cursor)
	return nil
}

func (b *boundedStaleness) Step(t int, view View, dec *Decision) {
	dec.DeliverAll = true
	n := view.Nodes()
	if n == 0 {
		return
	}
	min := view.Fires(0)
	for v := 1; v < n; v++ {
		if f := view.Fires(v); f < min {
			min = f
		}
	}
	for v := 0; v < n; v++ {
		f := view.Fires(v)
		if f >= min+int64(b.k) {
			continue // at the staleness cap: frozen until the slowest catch up
		}
		dec.Activate[v] = f == min || b.src.Float64() < 0.5
	}
}

// Adversary returns the seeded worst-case-delay schedule within a fairness
// bound f: each link gets a fixed secret delay d_l ∈ [1,f] and releases its
// queue only when its oldest message has aged d_l steps; each node gets a
// secret activation period p_v ∈ [1,f] and is activated only at steps
// t ≡ φ_v (mod p_v). Every message is thus delivered within f steps of
// falling due and every node activated at least every f steps — the
// fairness bound — while latencies stay maximally heterogeneous, which is
// what breaks algorithms that silently assume lock-step rounds.
func Adversary(seed int64, fair int) Schedule {
	if fair < 1 {
		fair = 1
	}
	return &adversary{seed: seed, fair: fair}
}

type adversary struct {
	seed   int64
	fair   int
	delay  []int32 // per-link delivery delay in [1,fair]
	period []int32 // per-node activation period in [1,fair]
	phase  []int32 // per-node activation phase in [0,period)
}

func (a *adversary) Name() string { return fmt.Sprintf("adversary:%d", a.fair) }

// Dilation: a message falls due within fair steps and its consumer is
// activated within another fair steps, so a round costs at most 2·fair.
func (a *adversary) Dilation(nodes int) int { return 2 * a.fair }

func (a *adversary) Begin(nodes, links int) {
	rng := rand.New(rand.NewSource(a.seed))
	a.delay = make([]int32, links)
	for l := range a.delay {
		a.delay[l] = 1 + int32(rng.Intn(a.fair))
	}
	a.period = make([]int32, nodes)
	a.phase = make([]int32, nodes)
	for v := range a.period {
		a.period[v] = 1 + int32(rng.Intn(a.fair))
		a.phase[v] = int32(rng.Intn(int(a.period[v])))
	}
}

func (a *adversary) Step(t int, view View, dec *Decision) {
	for v := 0; v < view.Nodes(); v++ {
		if int32(t)%a.period[v] == a.phase[v] {
			dec.Activate[v] = true
		}
	}
	for l := 0; l < view.Links(); l++ {
		if born := view.OldestBorn(l); born >= 0 && t-born >= int(a.delay[l]) {
			dec.Deliver[l] = int32(view.InFlight(l))
		}
	}
}
