// Package obs is the engine's observability layer: a structured event
// journal, a metrics registry with Prometheus text export, and an
// injectable monotonic clock.
//
// The design splits telemetry into two streams with different shapes:
//
//   - The journal is the event-level record — every fire, delivery fate
//     (drop/dup/corrupt/retransmit), crash/recovery, partition heal and
//     fixpoint probe of a run, emitted as fixed-width Event records in a
//     deterministic global order and serialized as JSONL. It answers
//     questions of the epistemic kind ("what had node v seen when it
//     fired?", "which step did the partition heal at?") and is the
//     stepping stone to checkpoint/replay: a journal plus the seeds is a
//     complete causal account of a run.
//
//   - The metrics registry is the aggregate record — counters, gauges and
//     histograms a long-running process exports in Prometheus text format
//     for scraping. Engine Result counters are mirrored into it at the end
//     of every run, so across runs the registry is the accumulated view of
//     the same numbers.
//
// Both are injected, never global: a run carries an *Obs bundle (the
// injected-dependencies shape — logger, metrics, clock — of long-running
// simulation servers) and a nil bundle, sink or registry costs the engine
// a pointer test and nothing else. Determinism is load-bearing exactly as
// everywhere else in this repository: the engine emits journal events in
// global (step, link/node) order regardless of its worker count, so the
// serialized JSONL of a seeded run is byte-identical across GOMAXPROCS
// and shard settings.
package obs

import (
	"fmt"
	"time"
)

// Kind identifies what a journal Event records.
type Kind uint8

const (
	// KindFire records a completed activation of Node: a firing that
	// consumed a full frontier (async) or one synchronous round step. Arg
	// is the node's cumulative completed firings for the async executor
	// and 0 for the synchronous ones.
	KindFire Kind = iota
	// KindHalt records that Node halted at this step, immediately after
	// its fire event.
	KindHalt
	// KindDrop records a delivery on Link whose payload a fault plan
	// replaced with m0 (the omission fault).
	KindDrop
	// KindDup records a delivery on Link that a fault plan duplicated.
	KindDup
	// KindCorrupt records a delivery on Link whose payload a Byzantine
	// plan rewrote.
	KindCorrupt
	// KindRetransmit records a sender-side retransmission a fault plan
	// injected into Link's queue, behind the messages in flight.
	KindRetransmit
	// KindCrash records that Node crashed at this step.
	KindCrash
	// KindRecover records that Node recovered at this step; Arg is the
	// fault.RecoverKind (1 resume, 2 reset).
	KindRecover
	// KindHeal records that a partition plan restored cut links at this
	// step; Arg is the number of links newly healed.
	KindHeal
	// KindProbe records a global fixpoint probe; Arg is 1 when the probe
	// detected a fixpoint (ending the run) and 0 otherwise.
	KindProbe
	// KindDiverge records, after a stabilisation check, a live node whose
	// stabilised state differs from the fault-free reference. Step is the
	// faulty run's final step.
	KindDiverge

	numKinds
)

// kindNames is indexed by Kind; the spellings are the JSONL vocabulary.
var kindNames = [numKinds]string{
	"fire", "halt", "drop", "dup", "corrupt", "retransmit",
	"crash", "recover", "heal", "probe", "diverge",
}

// String returns the JSONL spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindNames lists every kind's JSONL spelling, in Kind order.
func KindNames() []string {
	names := make([]string, numKinds)
	copy(names, kindNames[:])
	return names
}

// ParseKind resolves a JSONL kind spelling back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q; have %v", s, kindNames)
}

// Event is one fixed-width journal record. Node and Link are -1 when the
// event is not node- or link-scoped; Arg is kind-specific (see the Kind
// constants). Events are plain values — emitting one allocates nothing.
type Event struct {
	// Step is the schedule step (async) or round (sync) the event
	// happened at.
	Step int64
	// Kind says what happened.
	Kind Kind
	// Node is the node the event concerns, or -1.
	Node int32
	// Link is the directed link (routing-table in-port slot) the event
	// concerns, or -1.
	Link int32
	// Arg is the kind-specific payload.
	Arg int64
}

// Sink consumes a run's journal events. The engine calls Event from its
// coordinator goroutine only, in deterministic global order — first all
// events of step t, then all of step t+1 — and Flush at the end of the
// run (on every exit path). Implementations therefore need no locking
// against the engine, but must not assume a run ends cleanly between
// steps: Flush can follow a budget error mid-stream.
type Sink interface {
	// Event consumes one journal record.
	Event(e Event)
	// Flush forces buffered records out and reports the first write error
	// encountered, if any.
	Flush() error
}

// Clock is a monotonic time source for duration measurements. Now returns
// the time elapsed since an arbitrary fixed origin; only differences are
// meaningful. Injected so tests and replays can drive time by hand.
type Clock interface {
	Now() time.Duration
}

// wallClock reads the real monotonic clock, origin at construction.
type wallClock struct{ base time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.base) } //weakvet:rand wallClock IS the injectable Clock's real-time backing; never on a replayed path

// WallClock returns a Clock backed by the real monotonic clock.
func WallClock() Clock { return wallClock{base: time.Now()} } //weakvet:rand the one sanctioned wall-time origin; runs feed durations through the injected Clock only

// ManualClock is a hand-driven Clock for tests: Now returns whatever the
// last Advance set. The zero value is ready to use.
type ManualClock struct{ t time.Duration }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.t += d }

// Now returns the current manual reading.
func (c *ManualClock) Now() time.Duration { return c.t }

// Obs bundles the observability dependencies injected into a run — the
// Deps shape of long-running simulation servers, trimmed to what the
// engine consumes. Any field may be nil; a nil *Obs disables everything.
type Obs struct {
	// Sink receives the run's journal events; nil disables the journal.
	Sink Sink
	// Metrics receives the run's counters and timing histograms; nil
	// disables metrics.
	Metrics *Metrics
	// Clock supplies the monotonic readings behind the timing histograms.
	// Nil falls back to WallClock; inject a ManualClock for deterministic
	// timings.
	Clock Clock
}

// ResolveClock returns o.Clock, or a fresh WallClock when unset.
func (o *Obs) ResolveClock() Clock {
	if o != nil && o.Clock != nil {
		return o.Clock
	}
	return WallClock()
}
