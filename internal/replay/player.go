package replay

// player.go is the replay side: a schedule and a fault plan that serve the
// recorded step records back to the engine instead of drawing any
// randomness. The engine asks for decisions, fates, rewrites and verdicts
// in exactly the order it did while recording (its own determinism
// discipline guarantees that), which is the order of each step record's
// fields, so both players share one cursor: the schedule player opens
// step t's record and decodes its schedule decision straight into the
// engine's Decision, and the plan player decodes the rest of the same
// bytes. Any mismatch — a step out of order, an exhausted stream, a field
// the engine asks for that the record does not hold or one it leaves
// unread — means the replay diverged from the recording (or the recording
// is corrupt) and fails the run via a replayFailure panic that Replay
// converts to an error.
//
// Player shape mirrors recorded shape on the one axis the engine can
// observe: a player for a corrupting plan implements Corrupter (the engine
// engages its receiver-side guard exactly as in the recorded run), one for
// a non-corrupting plan does not. Healer is implemented unconditionally —
// serving the recorded cumulative heal counts, which are 0 forever when
// the recorded plan never healed. Neither player is Resumable: a replay
// resumes from snapshots whose generator blobs are stripped, because the
// recorded stream itself is the generator state.

import (
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/schedule"
)

// player is the cursor the two players share.
type player struct {
	rec   *Recording
	start int // index of the first step record after the resume step
	next  int // index of the next step record
	step  int // the step being served; 0 before the first
	rd    stepReader

	initHealed, healed int64
}

// newPlayers returns the schedule and, for recordings with a plan, the
// fault plan that replay rec from fromStep (the snapshot from, when not
// nil).
func newPlayers(rec *Recording, fromStep int, from *engine.Snapshot) (schedule.Schedule, fault.Plan) {
	p := &player{rec: rec}
	for p.start < len(rec.steps) && stepOf(rec.steps[p.start]) <= fromStep {
		p.start++
	}
	if !rec.HasPlan {
		return playSchedule{p}, nil
	}
	if from != nil {
		p.initHealed = from.Healed
	}
	if rec.Corrupts {
		return playSchedule{p}, playCorrupter{playPlan{p}}
	}
	return playSchedule{p}, playPlan{p}
}

// fail reports a field of the step being served that cannot be read.
func (p *player) fail(err error) {
	if err != nil {
		failReplay("step %d: %v", p.step, err)
	}
}

// playSchedule serves each step's schedule decision, opening its record.
type playSchedule struct{ *player }

func (p playSchedule) Name() string { return "replay" }

func (p playSchedule) Begin(n, links int) { p.next, p.step = p.start, 0 }

func (p playSchedule) Step(t int, _ schedule.View, dec *schedule.Decision) {
	if p.step > 0 && p.rd.Len() > 0 {
		failReplay("step %d: the replay left %d bytes of its record unread", p.step, p.rd.Len())
	}
	if p.next >= len(p.rec.steps) {
		failReplay("decision stream exhausted at step %d", t)
	}
	step, err := p.rd.open(p.rec.steps[p.next], p.rec.Corrupts)
	p.next++
	p.fail(err)
	if step != t {
		failReplay("decision stream at step %d, engine at step %d", step, t)
	}
	p.step = t
	p.fail(p.rd.schedule(dec))
}

// playPlan serves the rest of each step record: the fault decision and
// heal count, the delivery fates and the Settled verdict.
type playPlan struct{ *player }

func (p playPlan) Name() string { return "replay" }

func (p playPlan) Begin(fault.Topology) { p.healed = p.initHealed }

func (p playPlan) Step(t int, _ fault.View, dec *fault.Decision) {
	healed, err := p.rd.plan(dec)
	p.fail(err)
	p.healed = healed
}

func (p playPlan) Filter(t, link int) fault.Fate {
	f, err := p.rd.fate()
	p.fail(err)
	return f
}

func (p playPlan) Settled() bool {
	ok, err := p.rd.settled()
	p.fail(err)
	return ok
}

func (p playPlan) Healed() int64 { return p.healed }

// playCorrupter is the player for recordings whose plan could corrupt.
type playCorrupter struct{ playPlan }

func (p playCorrupter) Corrupt(t, link int, _ string) string {
	msg, err := p.rd.rewritten()
	p.fail(err)
	return msg
}
