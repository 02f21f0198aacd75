package engine

// async_driver.go is the one driver of the asynchronous semantics: the
// step loop that runs the Kahn-frontier core of async.go under a schedule
// and a fault plan. Every step is two passes on the calling goroutine:
//
//   - deliverLinks, the fate pass: the schedule's deliveries on every link,
//     in link id order — the global (link, queue-position) order the plan's
//     per-delivery random stream is drawn in.
//   - fire, the firing pass: every activated node holding a full frontier
//     fires, in id order. A message emitted at step t is not deliverable
//     before step t+1 and each firing pops only its own in-links, so no
//     firing observes another's writes within a step.
//
// The schedule and the plan decide each step before its passes, and the
// fixpoint probe, settlement-gated, runs after them every fixpointEvery
// steps as one loop over the nodes. Every event goes to the journal as it
// happens, which is already journal order (see journal.go). The driver
// runs on one shard and ExecutorAsync ignores Options.Workers: a sharded
// firing pass was bit-identical but no faster, because delivery stays
// serial and two barriers per step cost more than the parallel firing
// saved (README, "Why async runs on one shard").

import (
	"fmt"
	"math"

	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// deliverLinks is the fate pass of step t: this step's deliveries on every
// link, in link id order. deliver clamps each count to what is in flight
// and does nothing for a count ≤ 0, so the links the schedule leaves alone
// are skipped without a call.
func (as *asyncState) deliverLinks(t int, res *Result) {
	if as.dec.DeliverAll {
		for l := range as.queues {
			as.deliver(int32(l), math.MaxInt, t, res)
		}
		return
	}
	for l, k := range as.dec.Deliver {
		if k > 0 {
			as.deliver(int32(l), int(k), t, res)
		}
	}
}

// fire is the firing pass of step t: every activated node holding a full
// frontier consumes it, steps and emits, in id order.
//
//weakvet:noalloc
func (as *asyncState) fire(t int) {
	dec := as.dec
	for v := range as.states {
		if (dec.ActivateAll || dec.Activate[v]) && as.canFire(v) {
			as.consume(v, t)
			as.emit(v, t)
		}
	}
}

// atFixpoint is the fixpoint probe: the condition of nodeAtFixpoint holds
// at every node.
func (as *asyncState) atFixpoint() bool {
	for v := range as.states {
		if !as.nodeAtFixpoint(v) {
			return false
		}
	}
	return true
}

// runAsync executes the asynchronous semantics.
func runAsync(m machine.Machine, g *graph.Graph, p *port.Numbering, opts Options) (res *Result, err error) {
	sched := opts.Schedule
	if sched == nil {
		sched = schedule.Synchronous()
	}
	as, active, err := newAsyncState(m, g, p, opts)
	if err != nil {
		return nil, err
	}
	n := g.N()
	met := newRunMetrics(opts.Obs, n)
	defer func() {
		// Flush the journal on every exit path, then mirror the counters of
		// a completed run into the registry.
		if as.jr != nil {
			as.jr.finish(&err)
		}
		if err != nil {
			res = nil
		} else if met != nil {
			met.finish(res)
		}
	}()
	links := len(as.queues)
	res = &Result{Fires: as.fires, States: as.states, Alive: as.alive, Shards: 1}
	if opts.Resume != nil {
		// Restored before the trace below records its first entry, so a
		// resumed trace starts at the resumed configuration.
		if active, err = as.restore(opts.Resume, res); err != nil {
			return nil, err
		}
		res.Rounds = opts.Resume.Step
	}
	if opts.RecordTrace {
		res.Trace = append(res.Trace, append([]machine.State(nil), as.states...))
	}
	res.Output = as.outputs
	if active == 0 {
		return res, nil
	}
	as.dec = schedule.NewDecision(n, links)

	sched.Begin(n, links)
	var healer fault.Healer
	if as.plan != nil {
		as.plan.Begin(asyncTopology{as: as})
		healer, _ = as.plan.(fault.Healer)
	}
	view := asyncView{as: as}
	maxSteps := asyncStepBudget(opts, sched, n)
	startT := 1
	if snap := opts.Resume; snap != nil {
		if err := restoreGenState(sched, snap.SchedState, "schedule"); err != nil {
			return nil, err
		}
		if err := restoreGenState(as.plan, snap.PlanState, "fault plan"); err != nil {
			return nil, err
		}
		// The snapshot's queues already hold whatever was in the network.
		startT = snap.Step + 1
	} else {
		// Step 0: every node emits μ(x_0) (halted nodes m0) into the
		// network.
		for v := 0; v < n; v++ {
			as.emit(v, 0)
		}
	}
	for t := startT; ; t++ {
		if t > maxSteps {
			return nil, fmt.Errorf("%w (step budget %d, machine %q on %v, schedule %s)",
				ErrNoHalt, maxSteps, m.Name(), g, sched.Name())
		}
		as.dec.Reset()
		sched.Step(t, view, as.dec)
		if as.plan != nil {
			active += as.applyFaults(t, view, res)
		}
		// The plan exposes only the cumulative heal count; the step it grew
		// at is the step the partition healed.
		if healer != nil {
			if h := healer.Healed(); h > res.Healed {
				if as.jr != nil {
					as.jr.event(obs.Event{
						Step: int64(t), Kind: obs.KindHeal, Node: -1, Link: -1,
						Arg: h - res.Healed})
				}
				res.Healed = h
			}
		}

		if met != nil {
			met.roundStart()
		}
		as.deliverLinks(t, res)
		if met != nil {
			met.phaseStart()
		}
		as.fire(t)
		if met != nil {
			met.phaseEnd()
			met.roundEnd()
		}
		res.MessageBytes += as.bytes
		active -= as.newHalts
		as.bytes, as.newHalts = 0, 0
		res.Rounds = t
		if opts.RecordTrace {
			res.Trace = append(res.Trace, append([]machine.State(nil), as.states...))
		}
		if active == 0 {
			return res, nil
		}
		// Probes run on the absolute grid of steps divisible by
		// fixpointEvery, so a resumed run probes at the same steps as the
		// original. The probe is only sound once the plan can no longer
		// perturb the run: an unsettled plan could still m0-substitute or
		// reset a configuration that currently looks steady.
		if t%fixpointEvery == 0 && (as.plan == nil || as.plan.Settled()) {
			fix := as.atFixpoint()
			if as.jr != nil {
				verdict := int64(0)
				if fix {
					verdict = 1
				}
				as.jr.event(obs.Event{
					Step: int64(t), Kind: obs.KindProbe, Node: -1, Link: -1,
					Arg: verdict})
			}
			if fix {
				res.Fixpoint = true
				return res, nil
			}
		}
		// Captured after the probe block so a snapshot at step t sits after
		// every journal event of step t: the journal of a replay from t is
		// exactly the original lines with step > t.
		if cp := opts.Checkpoint; cp != nil && t%cp.Every == 0 {
			if err := cp.Sink(as.capture(t, res, sched)); err != nil {
				return nil, fmt.Errorf("engine: checkpoint sink at step %d: %w", t, err)
			}
		}
	}
}
