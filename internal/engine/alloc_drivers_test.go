package engine

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): one driver per
// //weakvet:noalloc function, keyed by receiver-qualified name. Each
// driver does its setup once and returns the hot closure that
// testing.AllocsPerRun measures.

import (
	"fmt"

	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// weakvetHotMachine is a constant-send machine that never halts and
// keeps its states inside the runtime's small-int intern range
// (0..255), so re-boxing the state into the machine.State interface on
// every Step costs nothing and the measurement isolates the engine.
func weakvetHotMachine(delta int) machine.Machine {
	msgs := make([]machine.Message, delta+1)
	for p := range msgs {
		msgs[p] = fmt.Sprintf("m%d", p)
	}
	return &machine.Func{
		MachineName:  "weakvet-hot",
		MachineClass: machine.ClassMV,
		MaxDeg:       delta,
		InitFunc:     func(int) machine.State { return 255 },
		HaltedFunc:   func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc:     func(s machine.State, p int) machine.Message { return msgs[p] },
		StepFunc: func(s machine.State, _ []machine.Message) machine.State {
			n := s.(int) - 1
			if n < 1 {
				n = 255
			}
			return n
		},
	}
}

// weakvetHotState builds a run over a torus on the given number of
// shards, primed so the hot-path drivers below can run rounds forever
// without allocating.
func weakvetHotState(workers int) *runState {
	g := graph.Torus(8, 8)
	p := port.Canonical(g)
	rs, _, err := newRunState(weakvetHotMachine(g.MaxDegree()), g, p, Options{}, workers)
	if err != nil {
		panic(err)
	}
	return rs
}

var weakvetAllocDrivers = map[string]func() func(){
	"(*runState).sendRank": func() func() {
		rs := weakvetHotState(1)
		sh := &rs.shards[0]
		n := len(rs.order)
		return func() {
			for r := 0; r < n; r++ {
				rs.sendRank(r, rs.cur, sh)
			}
			sh.bytes = 0
		}
	},
	"(*runState).stepShard": func() func() {
		rs := weakvetHotState(1)
		rs.run(false) // fill the first arena so steps consume real inboxes
		sh := &rs.shards[0]
		return func() {
			rs.stepShard(sh)
			rs.swap()
			sh.bytes, sh.newHalts = 0, 0
		}
	},
	"(*runState).fold": func() func() {
		rs := weakvetHotState(4)
		return func() {
			for w := range rs.shards {
				rs.shards[w].bytes = int64(w)
				rs.shards[w].newHalts = w
			}
			rs.fold()
		}
	},
	"(*asyncState).fire": func() func() {
		// Steady steps under schedule.Synchronous with no journal: every
		// queue stays within its initial capacity of 2.
		g := graph.Torus(8, 8)
		p := port.Canonical(g)
		as, _, err := newAsyncState(weakvetHotMachine(g.MaxDegree()), g, p, Options{})
		if err != nil {
			panic(err)
		}
		n, links := g.N(), len(as.queues)
		sched := schedule.Synchronous()
		sched.Begin(n, links)
		as.dec = schedule.NewDecision(n, links)
		sched.Step(1, asyncView{as: as}, as.dec)
		for v := 0; v < n; v++ {
			as.emit(v, 0)
		}
		var res Result
		t := 0
		return func() {
			t++
			as.deliverLinks(t, &res)
			as.fire(t)
			as.bytes = 0
		}
	},
}
