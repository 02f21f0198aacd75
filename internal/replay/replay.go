// Package replay is the flight recorder built on the engine's checkpoint
// layer: it records a run's decision stream — every schedule decision,
// fault-plan decision, delivery fate, Byzantine rewrite and settledness
// verdict, in the engine's global draw order — together with periodic
// state snapshots, and reconstructs the run from them without re-drawing
// any randomness. The adversary's decisions at one step make one WRPLAY03
// step record (codec.go); a Recording keeps exactly the bytes it streams,
// one record per step, and the players decode them straight into the
// engine's decisions.
//
// The contract is byte-exactness, inherited from the engine's own
// determinism discipline: a replayed run produces the same Result (modulo
// Shards), the same Trace and the same serialized journal as the recorded
// run, for every worker count and GOMAXPROCS setting — from step 0 or
// from any recorded snapshot (in which case Trace and journal are the
// recorded run's suffixes). The players feed the engine recorded decisions
// through the ordinary Schedule and Plan interfaces, so the engine cannot
// tell a replay from a live run; recorded snapshots have their generator
// state blobs stripped before resuming, because the players are the
// generator state.
//
// On top of record/replay sits divergence bisection (BisectDivergence):
// binary-search the snapshots for the first one off the fault-free
// synchronous trajectory, then replay one snapshot interval to name the
// exact first divergent (step, node). stabilize.CheckWith drives it for
// failed self-stabilisation checks.
package replay

import (
	"errors"
	"fmt"
	"io"

	"weakmodels/internal/engine"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
)

// Recording is a run's full decision stream plus its snapshots — enough to
// reconstruct the run bit-exactly from step 0 or from any snapshot. Build
// one live with New, or decode a saved one with Load.
type Recording struct {
	// Sync marks a synchronous-executor recording: no decision stream (the
	// synchronous semantics draw no randomness), snapshots only.
	Sync bool
	// HasPlan says the recorded run had a fault plan; Corrupts that the
	// plan could corrupt payloads (fault.CanCorrupt), which decides the
	// player's shape — a falsely-corrupting player would engage the
	// engine's receiver-side guard and diverge.
	HasPlan  bool
	Corrupts bool
	// FinalStep is the recorded run's last executed step (Result.Rounds);
	// 0 until Finish, which marks an incomplete recording.
	FinalStep int
	// Fixpoint mirrors the recorded Result.Fixpoint.
	Fixpoint bool

	// steps holds one encoded step record per recorded step, in step
	// order: exactly the payloads streamed for them.
	steps [][]byte
	snaps []*engine.Snapshot
}

// Snapshots returns the recorded snapshots in step order. The slice is
// shared; treat it as read-only.
func (rec *Recording) Snapshots() []*engine.Snapshot { return rec.snaps }

// SnapshotBefore returns the latest snapshot taken at or before step, or
// nil when none is.
func (rec *Recording) SnapshotBefore(step int) *engine.Snapshot {
	var best *engine.Snapshot
	for _, s := range rec.snaps {
		if s.Step <= step {
			best = s
		}
	}
	return best
}

// replayFailure carries a player's mismatch panic to Replay's recover.
type replayFailure struct{ err error }

func failReplay(format string, args ...any) {
	panic(replayFailure{fmt.Errorf("replay: "+format, args...)})
}

// Replay reconstructs the recorded run and returns its Result, which is
// bit-identical to the recorded one (modulo Shards) for any Workers or
// GOMAXPROCS in base. from resumes from one of the recording's snapshots
// (nil replays from step 0); the replayed Trace and journal are then the
// recorded run's suffixes from that step. base supplies Executor (sync
// recordings), Workers, Obs, RecordTrace and input options; it must not
// set Schedule, Fault, Checkpoint, Resume or MaxRounds — the recording
// owns them.
func (rec *Recording) Replay(m machine.Machine, p *port.Numbering, base engine.Options, from *engine.Snapshot) (res *engine.Result, err error) {
	if rec.FinalStep <= 0 {
		return nil, errors.New("replay: recording has no end record (the run did not complete)")
	}
	if base.Schedule != nil || base.Fault != nil || base.Checkpoint != nil || base.Resume != nil || base.MaxRounds != 0 {
		return nil, errors.New("replay: base options must leave Schedule, Fault, Checkpoint, Resume and MaxRounds unset")
	}
	opts := base
	// The recorded run ended at FinalStep by halt or fixpoint; the replay
	// ends the same way at the same step, so the budget is exact — running
	// past it means the replay diverged, and the budget error says so.
	opts.MaxRounds = rec.FinalStep
	fromStep := 0
	if from != nil {
		fromStep = from.Step
		// The players below ARE the generators' mid-run state; the blobs
		// would make the engine demand Resumable generators.
		cp := *from
		cp.SchedState, cp.PlanState = nil, nil
		opts.Resume = &cp
	}
	if !rec.Sync {
		opts.Executor = engine.ExecutorAsync
		opts.Schedule, opts.Fault = newPlayers(rec, fromStep, from)
	}
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(replayFailure); ok {
				res, err = nil, f.err
				return
			}
			panic(r)
		}
	}()
	return engine.Run(m, p, opts)
}

// Save writes the recording to w in the WRPLAY03 binary format: the same
// bytes the recorder streams. Recordings built by New with a non-nil
// writer are already streamed; Save serializes an in-memory one after the
// fact. Snapshot states must be gob-encodable.
func (rec *Recording) Save(w io.Writer) error {
	if _, err := w.Write([]byte(replayMagic)); err != nil {
		return err
	}
	out := &recordWriter{w: w}
	out.emit(recBegin, encodeBegin(rec))
	snaps := rec.snaps
	for _, b := range rec.steps {
		// A snapshot follows the record of the step it was taken at.
		for ; len(snaps) > 0 && snaps[0].Step < stepOf(b); snaps = snaps[1:] {
			out.snapshot(snaps[0])
		}
		out.emit(recStep, b)
	}
	for _, s := range snaps {
		out.snapshot(s)
	}
	if rec.FinalStep > 0 {
		out.emit(recEnd, encodeEnd(rec))
	}
	return out.err
}
