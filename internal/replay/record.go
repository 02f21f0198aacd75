package replay

// record.go is the recording side: New wraps a run's Options so that the
// schedule, the fault plan and the checkpoint stream all pass through a
// Recorder, which encodes each step's decisions into one WRPLAY03 step
// record as the engine asks for them, keeps the record's bytes in the
// in-memory Recording and (optionally) streams them to a writer record by
// record — a killed process leaves a loadable prefix.
//
// The wrappers are shape-preserving: the engine type-asserts its
// generators (Corrupter for the receiver-side guard, Dilated for the step
// budget, Resumable for checkpointing), so each wrapper variant carries
// exactly the optional methods its wrapped generator carries. Corrupter-
// ness follows fault.CanCorrupt — a composite implements Corrupt
// structurally even when no component can lie, and mirroring the method
// rather than the capability would flip the engine's guard. The one
// deliberate widening is Healer: the wrapper (like the player) always
// implements it, reporting 0 forever for plans that never heal, which is
// observationally identical to having no Healer at all.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"weakmodels/internal/enc"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/schedule"
)

// Recorder accumulates one run's decision stream. Obtain one from New,
// run the engine with the returned Options, then call Finish.
type Recorder struct {
	rec *Recording
	out *recordWriter // nil for in-memory recordings

	// The open step's record, encoded into a reused scratch buffer as the
	// engine's calls arrive (empty between steps). Its fates are counted
	// as they come; the count goes in at fatesAt when the step closes.
	buf     []byte
	fatesAt int
	fates   uint64
}

// New prepares a recorded run: it returns a copy of opts whose schedule,
// fault plan and checkpoint stream are wrapped to record into the returned
// Recorder, with snapshots taken every `every` steps (≥ 1). The recorded
// run itself is bit-identical to the unwrapped one. When w is non-nil the
// recording is additionally streamed to it record by record (states must
// then be gob-encodable for the snapshots); a nil w keeps everything in
// memory, with live (never serialized) snapshots.
//
// After engine.Run returns, call Finish with its Result to seal the
// recording. opts must not already set Checkpoint.
func New(opts engine.Options, every int, w io.Writer) (engine.Options, *Recorder, error) {
	if every < 1 {
		return opts, nil, fmt.Errorf("replay: snapshot cadence %d, want ≥ 1", every)
	}
	if opts.Checkpoint != nil {
		return opts, nil, fmt.Errorf("replay: options already carry a Checkpoint sink")
	}
	r := &Recorder{rec: &Recording{}}
	if w != nil {
		if _, err := w.Write([]byte(replayMagic)); err != nil {
			return opts, nil, fmt.Errorf("replay: write header: %w", err)
		}
		r.out = &recordWriter{w: w}
	}
	if opts.Executor == engine.ExecutorAsync {
		sched := opts.Schedule
		if sched == nil {
			// The engine would default it; record the default explicitly so
			// the wrapper sees every Step call.
			sched = schedule.Synchronous()
		}
		opts.Schedule = wrapSchedule(sched, r)
		if opts.Fault != nil {
			r.rec.HasPlan = true
			r.rec.Corrupts = fault.CanCorrupt(opts.Fault)
			opts.Fault = wrapPlan(opts.Fault, r)
		}
	} else {
		r.rec.Sync = true
	}
	if r.out != nil {
		r.out.emit(recBegin, encodeBegin(r.rec))
	}
	opts.Checkpoint = &engine.CheckpointOptions{Every: every, Sink: r.addSnapshot}
	return opts, r, nil
}

// Recording returns the recording built so far. Before Finish it is
// incomplete (FinalStep 0) and only useful for inspection.
func (r *Recorder) Recording() *Recording { return r.rec }

// Finish seals the recording with the completed run's Result and flushes
// the trailing records. A recording without Finish (the run errored, or
// the process died) keeps its prefix but cannot be replayed.
func (r *Recorder) Finish(res *engine.Result) error {
	r.closeStep()
	r.rec.FinalStep = res.Rounds
	r.rec.Fixpoint = res.Fixpoint
	if r.out != nil {
		r.out.emit(recEnd, encodeEnd(r.rec))
		return r.out.err
	}
	return nil
}

// addSnapshot is the engine's checkpoint sink. The snapshot at step t is
// captured after every decision of step t, so it closes the step's record.
func (r *Recorder) addSnapshot(s *engine.Snapshot) error {
	r.closeStep()
	r.rec.snaps = append(r.rec.snaps, s)
	if r.out != nil {
		r.out.snapshot(s)
		return r.out.err
	}
	return nil
}

// closeStep finishes the open step's record: it inserts the fate count on
// plan runs, keeps one copy of the record and streams it.
func (r *Recorder) closeStep() {
	if len(r.buf) == 0 {
		return
	}
	if r.rec.HasPlan {
		var n [binary.MaxVarintLen64]byte
		r.buf = slices.Insert(r.buf, r.fatesAt, enc.Uvarint(n[:0], r.fates)...)
	}
	b := bytes.Clone(r.buf)
	r.buf = r.buf[:0]
	r.rec.steps = append(r.rec.steps, b)
	if r.out != nil {
		r.out.emit(recStep, b)
	}
}

// recSchedule wraps a schedule, recording every decision. It always
// implements Dilated, replicating the engine's default (dilation n) for
// schedules that don't, so the wrapped run's step budget is unchanged.
type recSchedule struct {
	inner schedule.Schedule
	r     *Recorder
}

func (s *recSchedule) Name() string       { return s.inner.Name() }
func (s *recSchedule) Begin(n, links int) { s.inner.Begin(n, links) }
func (s *recSchedule) Step(t int, view schedule.View, dec *schedule.Decision) {
	s.inner.Step(t, view, dec)
	s.r.closeStep()
	s.r.buf = appendSchedule(s.r.buf, t, dec)
}
func (s *recSchedule) Dilation(nodes int) int {
	if d, ok := s.inner.(schedule.Dilated); ok {
		return d.Dilation(nodes)
	}
	return nodes
}

// recScheduleR additionally forwards Resumable, so checkpoints taken
// during a recorded run still carry the live generator's state (for
// engine-level resume with live generators; replay strips them).
type recScheduleR struct{ recSchedule }

func (s *recScheduleR) SnapshotState() []byte {
	return s.inner.(schedule.Resumable).SnapshotState()
}
func (s *recScheduleR) RestoreState(b []byte) error {
	return s.inner.(schedule.Resumable).RestoreState(b)
}

func wrapSchedule(inner schedule.Schedule, r *Recorder) schedule.Schedule {
	base := recSchedule{inner: inner, r: r}
	if _, ok := inner.(schedule.Resumable); ok {
		return &recScheduleR{base}
	}
	return &base
}

// recPlan wraps a fault plan, recording its decisions, fates, rewrites and
// Settled verdicts into the open step record.
type recPlan struct {
	inner fault.Plan
	r     *Recorder
}

func (p *recPlan) Name() string             { return p.inner.Name() }
func (p *recPlan) Begin(top fault.Topology) { p.inner.Begin(top) }
func (p *recPlan) Step(t int, view fault.View, dec *fault.Decision) {
	p.inner.Step(t, view, dec)
	r := p.r
	r.buf = appendPlan(r.buf, dec, p.Healed())
	r.fatesAt, r.fates = len(r.buf), 0
}
func (p *recPlan) Filter(t, link int) fault.Fate {
	f := p.inner.Filter(t, link)
	p.r.buf = append(p.r.buf, byte(f))
	p.r.fates++
	return f
}
func (p *recPlan) Settled() bool {
	ok := p.inner.Settled()
	p.r.buf = enc.Bool(p.r.buf, ok)
	return ok
}

// Healed is implemented unconditionally (see the package comment): 0
// forever for plans without a Healer is indistinguishable from no Healer.
func (p *recPlan) Healed() int64 {
	if h, ok := p.inner.(fault.Healer); ok {
		return h.Healed()
	}
	return 0
}

func (p *recPlan) corrupt(t, link int, msg string) string {
	rewrite := p.inner.(fault.Corrupter).Corrupt(t, link, msg)
	p.r.buf = enc.String(p.r.buf, rewrite)
	return rewrite
}

func (p *recPlan) snapshotState() []byte {
	return p.inner.(schedule.Resumable).SnapshotState()
}
func (p *recPlan) restoreState(b []byte) error {
	return p.inner.(schedule.Resumable).RestoreState(b)
}

// The wrapper variants: corrupter-ness × resumability, matched to the
// wrapped plan's shape at construction.
type recPlanC struct{ recPlan }

func (p *recPlanC) Corrupt(t, link int, msg string) string { return p.corrupt(t, link, msg) }

type recPlanR struct{ recPlan }

func (p *recPlanR) SnapshotState() []byte       { return p.snapshotState() }
func (p *recPlanR) RestoreState(b []byte) error { return p.restoreState(b) }

type recPlanCR struct{ recPlan }

func (p *recPlanCR) Corrupt(t, link int, msg string) string { return p.corrupt(t, link, msg) }
func (p *recPlanCR) SnapshotState() []byte                  { return p.snapshotState() }
func (p *recPlanCR) RestoreState(b []byte) error            { return p.restoreState(b) }

func wrapPlan(inner fault.Plan, r *Recorder) fault.Plan {
	base := recPlan{inner: inner, r: r}
	corrupts := fault.CanCorrupt(inner)
	_, resumable := inner.(schedule.Resumable)
	switch {
	case corrupts && resumable:
		return &recPlanCR{base}
	case corrupts:
		return &recPlanC{base}
	case resumable:
		return &recPlanR{base}
	default:
		return &base
	}
}
