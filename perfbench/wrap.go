package main

import (
	"fmt"
	"time"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/schedule"
)

// The traced run's forwarding wrappers. The engine type-asserts optional
// interfaces on what it is given (MessageGuard for the corruption guard,
// FixpointProber and Rebooter for probes and resets, InputAware for local
// inputs, Dilated for the step budget, Resumable for checkpoints, Corrupter
// and Healer on plans), so a wrapper that dropped or added one would send
// the engine down another path. The machine wrapper therefore keeps the
// concrete type: it copies the *machine.Func and wraps its function fields,
// so the copy has the wrapped machine's optional interfaces by
// construction. The schedule and plan wrappers each carry the one
// combination of optional interfaces the workloads use, and panic on any
// other value rather than hand the engine a different set.

// ---- machine ----

// wrapMachine returns a copy of inner whose δ, μ and Halted go through the
// tracer's probes.
func (t *tracer) wrapMachine(inner machine.Machine) machine.Machine {
	f, ok := inner.(*machine.Func)
	if !ok {
		panic(fmt.Sprintf("perfbench: cannot trace machine %T: only a *machine.Func is copied with its optional interfaces", inner))
	}
	w := *f
	mode := f.MachineClass.Recv
	halted, send, step := f.HaltedFunc, f.SendFunc, f.StepFunc
	w.HaltedFunc = func(s machine.State) (machine.Output, bool) {
		if !t.sample(pHalted) {
			return halted(s)
		}
		t0 := time.Now()
		o, ok := halted(s)
		t.observe(pHalted, t0)
		return o, ok
	}
	w.SendFunc = func(s machine.State, port int) machine.Message {
		if !t.sample(pSend) {
			return send(s, port)
		}
		t0 := time.Now()
		msg := send(s, port)
		t.observe(pSend, t0)
		return msg
	}
	w.StepFunc = func(s machine.State, inbox []machine.Message) machine.State {
		t.inboxMsgs.Add(int64(len(inbox)))
		var next machine.State
		if t.sample(pStep) {
			t.recordInbox(mode, inbox)
			t0 := time.Now()
			next = step(s, inbox)
			t.observe(pStep, t0)
		} else {
			next = step(s, inbox)
		}
		if t.trackChanges && !machine.StatesEqual(f, s, next) {
			// Every δ call of one step stores the same value, so concurrent
			// shards need no compare-and-swap.
			t.lastChange.Store(t.curStep.Load())
		}
		return next
	}
	return &w
}

// ---- schedule ----

// wrappedSchedule is the schedule shape the traced run accepts: Dilated and
// Resumable, as async-hostile's random-subset schedule is.
type wrappedSchedule interface {
	schedule.Schedule
	schedule.Dilated
	schedule.Resumable
}

// tracedSchedule forwards every method of the wrapped schedule and probes
// Step.
type tracedSchedule struct {
	wrappedSchedule
	t *tracer
}

func (s *tracedSchedule) Step(step int, view schedule.View, dec *schedule.Decision) {
	s.t.stepBegins(step)
	if s.t.sample(pSchedStep) {
		t0 := time.Now()
		s.wrappedSchedule.Step(step, view, dec)
		s.t.observe(pSchedStep, t0)
	} else {
		s.wrappedSchedule.Step(step, view, dec)
	}
	if dec.ActivateAll {
		s.t.activations += int64(view.Nodes())
	} else {
		for _, a := range dec.Activate {
			if a {
				s.t.activations++
			}
		}
	}
	if dec.DeliverAll {
		for l := range view.Links() {
			s.t.deliveries += int64(view.InFlight(l))
		}
		return
	}
	for l, d := range dec.Deliver {
		if d > 0 {
			s.t.deliveries += int64(min(int(d), view.InFlight(l)))
		}
	}
}

func (t *tracer) wrapSchedule(inner schedule.Schedule) schedule.Schedule {
	s, ok := inner.(wrappedSchedule)
	if !ok {
		panic(fmt.Sprintf("perfbench: cannot trace schedule %s: the wrapper forwards exactly Dilated and Resumable", inner.Name()))
	}
	t.trackChanges = true
	return &tracedSchedule{wrappedSchedule: s, t: t}
}

// ---- fault plan ----

// wrappedPlan is the plan shape the traced run accepts: a Resumable Healer
// that can corrupt (fault.CanCorrupt holds), as async-hostile's composite
// is. A composite has Corrupt even when no component can lie; the engine
// follows CanCorrupt, so the wrapper must carry Corrupter exactly when it
// holds.
type wrappedPlan interface {
	fault.Corrupter
	fault.Healer
	schedule.Resumable
}

// tracedPlan forwards every method of the wrapped plan and probes Step,
// Filter and Corrupt.
type tracedPlan struct {
	wrappedPlan
	t *tracer
}

func (p *tracedPlan) Step(step int, view fault.View, dec *fault.Decision) {
	if !p.t.sample(pPlanStep) {
		p.wrappedPlan.Step(step, view, dec)
		return
	}
	t0 := time.Now()
	p.wrappedPlan.Step(step, view, dec)
	p.t.observe(pPlanStep, t0)
}

func (p *tracedPlan) Filter(step, link int) fault.Fate {
	if !p.t.sample(pFilter) {
		return p.wrappedPlan.Filter(step, link)
	}
	t0 := time.Now()
	f := p.wrappedPlan.Filter(step, link)
	p.t.observe(pFilter, t0)
	return f
}

func (p *tracedPlan) Corrupt(step, link int, msg string) string {
	if !p.t.sample(pCorrupt) {
		return p.wrappedPlan.Corrupt(step, link, msg)
	}
	t0 := time.Now()
	out := p.wrappedPlan.Corrupt(step, link, msg)
	p.t.observe(pCorrupt, t0)
	return out
}

func (t *tracer) wrapPlan(inner fault.Plan) fault.Plan {
	p, ok := inner.(wrappedPlan)
	if !ok || !fault.CanCorrupt(inner) {
		panic(fmt.Sprintf("perfbench: cannot trace plan %s: the wrapper forwards exactly Corrupter (with CanCorrupt), Healer and Resumable", inner.Name()))
	}
	return &tracedPlan{wrappedPlan: p, t: t}
}

// ---- journal sink and checkpoint sink ----

type tracedSink struct {
	inner obs.Sink
	t     *tracer
}

func (s *tracedSink) Event(e obs.Event) {
	if !s.t.sample(pSinkEvent) {
		s.inner.Event(e)
		return
	}
	t0 := time.Now()
	s.inner.Event(e)
	s.t.observe(pSinkEvent, t0)
}

func (s *tracedSink) Flush() error { return s.inner.Flush() }

func (t *tracer) wrapSink(inner obs.Sink) obs.Sink { return &tracedSink{inner: inner, t: t} }

// wrapCheckpoint spans every snapshot the engine hands the recorder. The
// engine calls its checkpoint sink on the caller's goroutine, inside
// engine.Run.
func (t *tracer) wrapCheckpoint(inner func(*engine.Snapshot) error) func(*engine.Snapshot) error {
	return func(s *engine.Snapshot) error {
		sp := t.begin("Checkpoint.Sink")
		err := inner(s)
		t.end(sp)
		return err
	}
}
