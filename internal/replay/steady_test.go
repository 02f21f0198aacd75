package replay

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
)

// neverSteady is a machine whose fixpoint probe always fails, so only the
// step budget can end a run that does not halt. It embeds the *Func, so
// the machine's MessageGuard stays visible to the engine.
type neverSteady struct{ *machine.Func }

func (neverSteady) StatesEqual(a, b machine.State) bool { return false }

// TestAsyncFixpointIsSteady: a detected fixpoint is a configuration no
// later step changes. Each cell runs to its detected fixpoint at step t,
// then runs again with a machine whose probe never succeeds, with a
// snapshot every step, to step t+64 — or 64 steps past the fault plans'
// default horizon, if t comes before it, so that a probe ending a run
// while its plan can still act is caught. Every snapshot from t on must
// hold the first run's final States and Alive. The cells are every golden
// hostile cell (a halting cell has no fixpoint and is skipped; the worker
// count does not change an async run) and a seeded sweep of tori and PA
// graphs under four schedules, which deals the golden table's plans out
// in turn.
func TestAsyncFixpointIsSteady(t *testing.T) {
	type cell struct {
		graph, machine, sched, faults string
		seed                          int64
	}
	var cells []cell
	var plans []string
	for _, c := range goldenCells {
		if k := len(cells); k > 0 && cells[k-1].faults == c.faults && cells[k-1].seed == c.seed {
			continue
		}
		cells = append(cells, cell{c.graph, c.machine, c.sched, c.faults, c.seed})
		plans = append(plans, c.faults)
	}
	for _, g := range []string{"torus", "pa"} {
		for _, sched := range []string{"random:0.5", "staleness:2", "adversary:3", "roundrobin"} {
			k := len(cells)
			cells = append(cells, cell{g, "max", sched, plans[k%len(plans)], int64(100 + k)})
		}
	}
	const extra = 64
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s/%s/%s/seed%d", c.graph, c.machine, c.sched, c.faults, c.seed)
		m, p, opts := hostileCell(t, c.graph, c.machine, c.sched, c.faults, c.seed)
		first, err := engine.Run(m, p, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !first.Fixpoint {
			if c.machine == "max" {
				t.Fatalf("%s: MaxConsensus ended at step %d without a fixpoint", label, first.Rounds)
			}
			continue // a halting cell has no fixpoint to check
		}
		fix := first.Rounds
		end := max(fix, fault.DefaultHorizon) + extra
		m, p, opts = hostileCell(t, c.graph, c.machine, c.sched, c.faults, c.seed)
		checked := 0
		opts.MaxRounds = end
		opts.Checkpoint = &engine.CheckpointOptions{Every: 1, Sink: func(s *engine.Snapshot) error {
			if s.Step < fix {
				return nil
			}
			checked++
			if !reflect.DeepEqual(s.States, first.States) || !reflect.DeepEqual(s.Alive, first.Alive) {
				return fmt.Errorf("configuration at step %d differs from the fixpoint detected at step %d", s.Step, fix)
			}
			return nil
		}}
		_, err = engine.Run(neverSteady{m.(*machine.Func)}, p, opts)
		if !errors.Is(err, engine.ErrNoHalt) {
			t.Fatalf("%s: rerun past the fixpoint: err = %v, want ErrNoHalt", label, err)
		}
		if checked != end-fix+1 {
			t.Fatalf("%s: checked %d snapshots from step %d, want %d", label, checked, fix, end-fix+1)
		}
	}
}
