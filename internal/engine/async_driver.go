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
//     firing observes another's writes within a step; the order is a memory
//     walk, and the journal sorts each step's fire/halt events by node id.
//
// The schedule and the plan decide each step before its passes, and the
// fixpoint probe, settlement-gated, runs after them as one loop over the
// nodes. The driver runs on one shard and ExecutorAsync ignores
// Options.Workers: a sharded firing pass was bit-identical but no faster,
// because delivery stays serial and two barriers per step cost more than
// the parallel firing saved (README, "Why async runs on one shard").

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

// asyncDriver is the step-loop state of one asynchronous run.
type asyncDriver struct {
	as  *asyncState
	dec *schedule.Decision
	res *Result
	// stats is the firing pass's byte/halt counters and journal buffer, in
	// the stepStats shape the journal and the metrics hooks drain.
	stats [1]stepStats
}

// deliverLinks is the fate pass of step t: this step's deliveries on every
// link, in link id order. deliver clamps each count to what is in flight
// and does nothing for a count ≤ 0, so the links the schedule leaves alone
// are skipped without a call.
func (d *asyncDriver) deliverLinks(t int) {
	if d.dec.DeliverAll {
		for l := range d.as.queues {
			d.as.deliver(int32(l), math.MaxInt, t, d.res)
		}
		return
	}
	for l, k := range d.dec.Deliver {
		if k > 0 {
			d.as.deliver(int32(l), int(k), t, d.res)
		}
	}
}

// fire is the firing pass of step t: every activated node holding a full
// frontier consumes it, steps and emits, in id order.
func (d *asyncDriver) fire(t int) {
	as, dec, st := d.as, d.dec, &d.stats[0]
	st.step = t
	for v := range as.states {
		if (dec.ActivateAll || dec.Activate[v]) && as.canFire(v) {
			as.consume(v, st)
			as.emit(v, t)
		}
	}
}

// atFixpoint is the fixpoint probe: the condition of nodeAtFixpoint holds
// at every node.
func (d *asyncDriver) atFixpoint() bool {
	for v := range d.as.states {
		if !d.as.nodeAtFixpoint(v) {
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
	d := &asyncDriver{as: as, dec: schedule.NewDecision(n, links), res: res}
	st := &d.stats[0]

	sched.Begin(n, links)
	var healer fault.Healer
	if as.plan != nil {
		as.plan.Begin(asyncTopology{as: as})
		healer, _ = as.plan.(fault.Healer)
	}
	view := asyncView{as: as}
	maxSteps := asyncStepBudget(opts, sched, n)
	checkInterval := asyncFixpointInterval(n)
	startT, nextCheck := 1, checkInterval
	if snap := opts.Resume; snap != nil {
		if err := restoreGenState(sched, snap.SchedState, "schedule"); err != nil {
			return nil, err
		}
		if err := restoreGenState(as.plan, snap.PlanState, "fault plan"); err != nil {
			return nil, err
		}
		// The snapshot's queues already hold whatever was in the network.
		// Fixpoint probes fire at the same absolute steps as in the
		// original run.
		startT = snap.Step + 1
		nextCheck = (snap.Step/checkInterval + 1) * checkInterval
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
		d.dec.Reset()
		sched.Step(t, view, d.dec)
		if as.plan != nil {
			active += as.applyFaults(t, view, res)
		}
		// The plan exposes only the cumulative heal count; the step it grew
		// at is the step the partition healed.
		if healer != nil {
			if h := healer.Healed(); h > res.Healed {
				if as.jr != nil {
					as.jr.coordEvent(obs.Event{
						Step: int64(t), Kind: obs.KindHeal, Node: -1, Link: -1,
						Arg: h - res.Healed})
				}
				res.Healed = h
			}
		}

		if met != nil {
			met.roundStart()
		}
		d.deliverLinks(t)
		if met != nil {
			met.phaseStart()
		}
		d.fire(t)
		if met != nil {
			met.phaseEnd()
			met.roundEnd()
		}
		if as.jr != nil {
			as.jr.flushStep(d.stats[:])
		}
		res.MessageBytes += st.bytes
		active -= st.newHalts
		st.bytes, st.newHalts = 0, 0
		res.Rounds = t
		if opts.RecordTrace {
			res.Trace = append(res.Trace, append([]machine.State(nil), as.states...))
		}
		if active == 0 {
			return res, nil
		}
		if t >= nextCheck {
			nextCheck = t + checkInterval
			// The probe is only sound once the plan can no longer perturb
			// the run: an unsettled plan could still m0-substitute or reset
			// a configuration that currently looks steady.
			if as.plan == nil || as.plan.Settled() {
				fix := d.atFixpoint()
				if as.jr != nil {
					// Emitted directly: step t's buffered events were already
					// flushed above, and the probe runs on quiescent state.
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
