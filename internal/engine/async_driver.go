package engine

// async_driver.go is the one driver of the asynchronous semantics: the
// Kahn-frontier core of async.go run over the shard runtime. The runtime
// hands each shard its slice of the BFS locality order; the shard owns
// those nodes outright — the queues of their in-ports, their ready
// counters, states, halt flags and fire counts are touched by no other
// goroutine during a phase. One shard (inline, no goroutines — the
// default below asyncAutoShardMinNodes) and W spawned shards are the same
// code path and bit-identical (TestAsyncShardedEquivalence pins every
// Result field, under -race).
//
// The schedule and the fault plan stay the single source of
// nondeterminism, which is what makes the shard count invisible:
//
//   - Schedule and plan callbacks run on the coordinator between
//     barriers, over quiescent state.
//   - The plan's per-delivery random stream must be drawn in global
//     (link, queue-position) order. The coordinator delivers each step's
//     messages in one pass over the links in id order (deliverLinks)
//     before the step phase, so every fate is drawn and applied in
//     exactly that order whatever the shard count; the workers only fire.
//   - Within one step, deliveries happen before firings, and a message
//     emitted at step t is not deliverable before step t+1 — so workers
//     never observe each other's mid-step writes. Same-shard emissions go
//     straight onto the owned queues; cross-shard emissions are parked in
//     per-(sender, receiver) staging rings and pushed by the receiving
//     shard at the merge barrier. A node fires at most once per step and
//     each out-port emits once per firing, so every queue gains at most
//     one message per step and the merge order cannot reorder any queue.
//   - Per-shard byte/halt counters are folded by the runtime at the
//     barrier; the fixpoint probe (settlement-gated exactly as in the
//     single-shard form) fans out per shard, each worker checking its own
//     nodes and queues against the quiescent global state.
//
// At most two barriers per step (fire, then merge — skipped when no shard
// staged anything, the common case under a well-cut sharding and a sparse
// schedule); everything between barriers is data-race free by ownership,
// which CI's -race run of the equivalence suite demonstrates.

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

// stagedMsg is one cross-shard emission, parked in the sending shard's
// outbound ring until the receiving shard pushes it at the merge barrier.
type stagedMsg struct {
	link int32
	born int
	msg  machine.Message
}

// asyncAutoShardMinNodes gates the default (Workers unset) choice of a
// sharded run: below this size, two barrier round-trips per step outweigh
// the per-step work and the inline single-shard form wins. An explicit
// Workers > 1 always shards.
const asyncAutoShardMinNodes = 512

// asyncShard is one shard's driver-side state: its scratch space, staging
// rings and probe verdict. The owned node set and telemetry counters live
// in the runtime.
type asyncShard struct {
	bufs   asyncBufs     // frontier/canonicalisation buffers
	out    [][]stagedMsg // out[d]: this step's emissions bound for shard d (nil when single-shard)
	staged bool          // whether any out ring is non-empty this step
	probe  bool          // this shard's verdict from the last fixpoint probe
}

// Phases of the async driver.
const (
	// asyncPhaseStep fires the shard's activated full-frontier nodes,
	// staging cross-shard emissions.
	asyncPhaseStep runtimePhase = iota
	// asyncPhaseMerge pushes the emissions other shards staged for this
	// one onto the owned queues.
	asyncPhaseMerge
	// asyncPhaseProbe evaluates the fixpoint condition over the shard.
	asyncPhaseProbe
)

// asyncDriver is the coordinator state of one asynchronous run. Fields
// are written by the coordinator only between runtime barriers, which
// order those writes against the shards' reads.
type asyncDriver struct {
	as     *asyncState
	dec    *schedule.Decision
	res    *Result
	shards []asyncShard
	// linkOwner maps each link to the shard of its receiving node; nil
	// when a single shard owns everything (emissions then push directly
	// and merges never run).
	linkOwner []int32
	t         int // step being executed

	rt shardRuntime
}

// runPhase executes one phase over shard w; the runtime fans it out.
func (d *asyncDriver) runPhase(w int, ph runtimePhase) {
	switch ph {
	case asyncPhaseStep:
		d.stepShard(w)
	case asyncPhaseMerge:
		d.mergeShard(w)
	case asyncPhaseProbe:
		d.shards[w].probe = d.probeShard(w)
	}
}

// quota is the number of in-flight messages the schedule delivers on
// link l this step; deliver clamps it to what is in flight.
func (d *asyncDriver) quota(l int32) int {
	if d.dec.DeliverAll {
		return math.MaxInt
	}
	return int(d.dec.Deliver[l])
}

// deliverLinks is the fate pass: this step's deliveries on every link, in
// link id order — the global (link, queue-position) order the plan's fate
// stream is drawn in, whatever the shard count. Coordinator only.
func (d *asyncDriver) deliverLinks() {
	for l := range d.as.queues {
		d.as.deliver(int32(l), d.quota(int32(l)), d.t, d.res)
	}
}

// stepShard runs one step's firing pass over shard w. Links owned by the
// shard are exactly the in-ports of its nodes, so firings pop only owned
// queues; emissions to other shards are staged.
func (d *asyncDriver) stepShard(w int) {
	as, dec := d.as, d.dec
	sh := &d.shards[w]
	st := &d.rt.stats[w]
	st.step, st.bytes, st.newHalts = d.t, 0, 0
	sh.staged = false
	if d.linkOwner == nil {
		// A single shard owns everything: fire in id order — sequential
		// memory over the queue and state arrays. (Iteration order never
		// affects the outcome; it is pure memory-walk.)
		for v := 0; v < len(as.states); v++ {
			if (dec.ActivateAll || dec.Activate[v]) && as.canFire(v) {
				as.consume(v, st, &sh.bufs)
				as.emit(v, st.step)
			}
		}
		return
	}
	for _, v32 := range d.rt.nodes(w) {
		v := int(v32)
		if (dec.ActivateAll || dec.Activate[v]) && as.canFire(v) {
			as.consume(v, st, &sh.bufs)
			d.emit(w, sh, v, st.step)
		}
	}
}

// emit is the sharded form of asyncState.emit: same-shard destinations
// are pushed directly (their delivery pass for this step is over — a
// step-t emission is deliverable at step t+1 at the earliest), cross-shard
// destinations are staged for the merge barrier.
func (d *asyncDriver) emit(w int, sh *asyncShard, v, step int) {
	as := d.as
	lo, hi := as.off[v], as.off[v+1]
	silent := as.silent(v)
	bmsg := as.broadcastMessage(v, silent)
	for s := lo; s < hi; s++ {
		msg := as.portMessage(v, s, lo, silent, bmsg)
		dl := as.dest[s]
		if o := d.linkOwner[dl]; o == int32(w) {
			as.queues[dl].push(msg, step)
		} else {
			sh.out[o] = append(sh.out[o], stagedMsg{link: dl, born: step, msg: msg})
			sh.staged = true
		}
	}
}

// mergeShard ingests the emissions every other shard staged for shard w,
// in sender order. Each queue gains at most one message per step, so the
// sender order cannot reorder any single queue.
func (d *asyncDriver) mergeShard(w int) {
	for s := range d.shards {
		in := d.shards[s].out[w]
		for i := range in {
			d.as.queues[in[i].link].push(in[i].msg, in[i].born)
			in[i] = stagedMsg{} // release the string
		}
		d.shards[s].out[w] = in[:0]
	}
}

// probeShard evaluates the fixpoint condition over shard w's nodes (and
// with them all of its in-link queues). It reads neighbour states across
// shard boundaries, which is safe: nothing is mutated during a probe
// phase.
func (d *asyncDriver) probeShard(w int) bool {
	for _, v := range d.rt.nodes(w) {
		if !d.as.nodeAtFixpoint(int(v), &d.shards[w].bufs) {
			return false
		}
	}
	return true
}

// asyncShards resolves the shard count of an async run. An explicit
// Workers > 1 is always honoured; the GOMAXPROCS default additionally
// requires a graph big enough that per-step work outweighs two barriers
// per step, since one shard is the same semantics without them.
func asyncShards(opts Options, n int) int {
	w := poolWorkers(opts, n)
	if w > 1 && opts.Workers <= 0 && n < asyncAutoShardMinNodes {
		return 1
	}
	return w
}

// runAsync executes the asynchronous semantics over the shard runtime.
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
		// Registered first so it runs last (after the healer defer below has
		// copied res.Healed out): flush the journal on every exit path, then
		// mirror the counters of a completed run into the registry.
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
	res = &Result{Fires: as.fires, States: as.states, Alive: as.alive}
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

	d := &asyncDriver{as: as, dec: schedule.NewDecision(n, links), res: res}
	d.rt.init(p.Locality(), asyncShards(opts, n))
	if met != nil {
		d.rt.clock = met.clock
	}
	workers := d.rt.workers
	res.Shards = workers
	if active == 0 {
		return res, nil
	}
	d.shards = make([]asyncShard, workers)
	for w := range d.shards {
		d.shards[w].bufs = as.newBufs()
	}
	if workers > 1 {
		for w := range d.shards {
			d.shards[w].out = make([][]stagedMsg, workers)
		}
		owner := d.rt.ownerTable()
		d.linkOwner = make([]int32, links)
		for l := range d.linkOwner {
			d.linkOwner[l] = owner[as.node[l]]
		}
	}

	sched.Begin(n, links)
	if opts.Resume != nil {
		if err := restoreGenState(sched, opts.Resume.SchedState, "schedule"); err != nil {
			return nil, err
		}
	}
	var healer fault.Healer
	var healedSeen int64
	if as.plan != nil {
		as.plan.Begin(asyncTopology{as: as})
		healer, _ = as.plan.(fault.Healer)
		if opts.Resume != nil {
			if err := restoreGenState(as.plan, opts.Resume.PlanState, "fault plan"); err != nil {
				return nil, err
			}
			// The heal-delta journaling below must not re-announce heals
			// that happened before the snapshot.
			healedSeen = opts.Resume.Healed
		}
		// Copy the partition-heal telemetry out on every exit path (normal
		// halt, fixpoint, budget error — res is nil on the error paths): the
		// plan owns the running count.
		defer func() {
			if healer != nil && res != nil {
				res.Healed = healer.Healed()
			}
		}()
	} else if opts.Resume != nil {
		if len(opts.Resume.PlanState) > 0 {
			return nil, fmt.Errorf("engine: resume snapshot carries fault-plan state but the run has no fault plan")
		}
		res.Healed = opts.Resume.Healed
	}
	view := asyncView{as: as}

	startT := 1
	if opts.Resume != nil {
		startT = opts.Resume.Step + 1
	} else {
		// Step 0: every node emits μ(x_0) (halted nodes m0) into the
		// network — on the coordinator, before any worker exists. A resumed
		// run skips it: the snapshot's queues already hold whatever was in
		// the network.
		for v := 0; v < n; v++ {
			as.emit(v, 0)
		}
	}

	d.rt.start(d, workers > 1)
	defer d.rt.stop()

	maxSteps := asyncStepBudget(opts, sched, n)
	checkInterval := asyncFixpointInterval(n)
	nextCheck := checkInterval
	if opts.Resume != nil {
		// Align the fixpoint-probe cadence with the original run: probes
		// fire at the same absolute steps whether or not the run resumed.
		nextCheck = (opts.Resume.Step/checkInterval + 1) * checkInterval
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
			if as.jr != nil && healer != nil {
				// The plan exposes only the cumulative heal count; the step it
				// grew at is the step the partition healed.
				if h := healer.Healed(); h > healedSeen {
					as.jr.coordEvent(obs.Event{
						Step: int64(t), Kind: obs.KindHeal, Node: -1, Link: -1,
						Arg: h - healedSeen})
					healedSeen = h
				}
			}
		}
		d.t = t

		if met != nil {
			met.roundStart()
		}
		d.deliverLinks()
		d.rt.run(asyncPhaseStep)
		if met != nil {
			met.shardPhase(d.rt.stats, met.shardStepUs)
		}
		// A well-cut sharding stages nothing on most steps under sparse
		// schedules; skipping an empty merge skips a whole barrier.
		staged := false
		for w := range d.shards {
			staged = staged || d.shards[w].staged
		}
		if staged {
			d.rt.run(asyncPhaseMerge)
			if met != nil {
				met.shardPhase(d.rt.stats, met.shardMergeUs)
			}
		}
		bytes, halts := d.rt.fold()
		if met != nil {
			met.roundEnd()
		}
		if as.jr != nil {
			as.jr.flushStep(d.rt.stats)
		}
		res.MessageBytes += bytes
		active -= halts
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
				d.rt.run(asyncPhaseProbe)
				if met != nil {
					// The probe's shard time belongs to neither histogram.
					met.dropShardDurs(d.rt.stats)
				}
				fix := true
				for w := range d.shards {
					fix = fix && d.shards[w].probe
				}
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
			var healed int64
			if healer != nil {
				healed = healer.Healed()
			}
			if err := cp.Sink(as.capture(t, res, healed, sched)); err != nil {
				return nil, fmt.Errorf("engine: checkpoint sink at step %d: %w", t, err)
			}
		}
	}
}
