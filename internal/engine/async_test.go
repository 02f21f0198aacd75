package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// TestAsyncSynchronousEquivalence is the correctness anchor of the async
// executor: under the Synchronous schedule it must be bit-identical to
// ExecutorSeq across the experiment suite — same Output, Rounds,
// MessageBytes and Trace when the sequential run halts, and the same
// ErrNoHalt when it does not. The equivalence budget is below the fixpoint
// probe interval, so detection cannot mask a budget failure here.
func TestAsyncSynchronousEquivalence(t *testing.T) {
	if equivalenceBudget >= asyncFixpointInterval(1) {
		t.Fatalf("equivalence budget %d must stay below the fixpoint probe interval %d",
			equivalenceBudget, asyncFixpointInterval(1))
	}
	rng := rand.New(rand.NewSource(30))
	for _, g := range suiteGraphs() {
		delta := g.MaxDegree()
		numberings := map[string]*port.Numbering{
			"canonical":  port.Canonical(g),
			"random":     port.Random(g, rng),
			"consistent": port.RandomConsistent(g, rng),
		}
		for _, m := range suiteMachines(delta) {
			for pname, p := range numberings {
				label := fmt.Sprintf("%s on %v ports=%s", m.Name(), g, pname)
				seq, seqErr := Run(m, p, Options{MaxRounds: equivalenceBudget, RecordTrace: true})
				// Both the implicit default schedule and an explicit
				// Synchronous must match.
				for _, sched := range []schedule.Schedule{nil, schedule.Synchronous()} {
					async, asyncErr := Run(m, p, Options{
						MaxRounds:   equivalenceBudget,
						RecordTrace: true,
						Executor:    ExecutorAsync,
						Schedule:    sched,
					})
					if (seqErr == nil) != (asyncErr == nil) {
						t.Fatalf("%s: seq err %v, async err %v", label, seqErr, asyncErr)
					}
					if seqErr != nil {
						if !errors.Is(asyncErr, ErrNoHalt) {
							t.Fatalf("%s: unexpected async error %v", label, asyncErr)
						}
						continue
					}
					if seq.Rounds != async.Rounds || seq.MessageBytes != async.MessageBytes {
						t.Fatalf("%s: telemetry differs (rounds %d/%d bytes %d/%d)",
							label, seq.Rounds, async.Rounds, seq.MessageBytes, async.MessageBytes)
					}
					if !reflect.DeepEqual(seq.Output, async.Output) {
						t.Fatalf("%s: outputs differ\nseq:   %v\nasync: %v",
							label, seq.Output, async.Output)
					}
					if !reflect.DeepEqual(seq.Trace, async.Trace) {
						t.Fatalf("%s: traces differ", label)
					}
					if async.Fixpoint {
						t.Fatalf("%s: spurious fixpoint on a halting run", label)
					}
					// Under the synchronous schedule every node fires once
					// per step.
					for v, f := range async.Fires {
						if f != int64(async.Rounds) {
							t.Fatalf("%s: node %d fired %d times in %d rounds", label, v, f, async.Rounds)
						}
					}
				}
			}
		}
	}
}

// undilatedSchedule is a custom schedule without a Dilation method, to
// exercise the assume-n fallback of asyncStepBudget.
type undilatedSchedule struct{ schedule.Schedule }

func TestAsyncStepBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		sched schedule.Schedule
		n     int
		want  int
	}{
		{"explicit is literal", Options{MaxRounds: 7}, schedule.RoundRobin(), 1_000_000, 7},
		{"sync keeps the round budget", Options{}, schedule.Synchronous(), 1_000_000, DefaultMaxRounds},
		{"roundrobin scales by n", Options{}, schedule.RoundRobin(), 50, 50 * DefaultMaxRounds},
		{"scaled budget is capped", Options{}, schedule.RoundRobin(), 12_000, maxDefaultAsyncSteps},
		{"adversary scales by 2·fair", Options{}, schedule.Adversary(1, 3), 50, 6 * DefaultMaxRounds},
		{"unknown schedule assumes n", Options{}, undilatedSchedule{schedule.Synchronous()}, 50, 50 * DefaultMaxRounds},
	} {
		if got := asyncStepBudget(tc.opts, tc.sched, tc.n); got != tc.want {
			t.Errorf("%s: asyncStepBudget = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// asyncFairSchedules builds one fresh instance of every fair non-sync
// generator; schedules are stateful, so each run gets its own.
func asyncFairSchedules(seed int64) []schedule.Schedule {
	return []schedule.Schedule{
		schedule.RoundRobin(),
		schedule.RandomSubset(seed, 0.4),
		schedule.BoundedStaleness(seed, 2),
		schedule.Adversary(seed, 3),
	}
}

// TestAsyncFairSchedulesReachSynchronousOutputs: the Kahn discipline makes
// the k-th firing of a node compute the synchronous state x_k, so under any
// fair schedule a halting machine must reach exactly the sequential
// executor's outputs — only latency and activation counts may differ.
func TestAsyncFairSchedulesReachSynchronousOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := []*graph.Graph{
		graph.Path(6),
		graph.Cycle(7),
		graph.Star(5),
		graph.Petersen(),
		graph.Grid(3, 3),
		graph.DisjointUnion(graph.Cycle(3), graph.Path(3)),
	}
	for _, g := range graphs {
		delta := g.MaxDegree()
		numberings := map[string]*port.Numbering{
			"canonical": port.Canonical(g),
			"random":    port.Random(g, rng),
		}
		for _, m := range suiteMachines(delta) {
			for pname, p := range numberings {
				seq, err := Run(m, p, Options{MaxRounds: 100})
				if err != nil {
					continue // non-halting on this (graph, numbering): covered by the sync-equivalence test
				}
				for _, sched := range asyncFairSchedules(23) {
					label := fmt.Sprintf("%s on %v ports=%s schedule=%s", m.Name(), g, pname, sched.Name())
					async, err := Run(m, p, Options{
						MaxRounds: 50_000,
						Executor:  ExecutorAsync,
						Schedule:  sched,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(seq.Output, async.Output) {
						t.Fatalf("%s: outputs differ\nseq:   %v\nasync: %v",
							label, seq.Output, async.Output)
					}
					if async.Fixpoint {
						t.Fatalf("%s: spurious fixpoint on a halting run", label)
					}
				}
			}
		}
	}
}

// TestAsyncSeededDeterminism is the reproducibility property the
// -schedule/-seed flags promise: the same (schedule, seed) pair replays a
// bit-identical run — same outputs, telemetry, trace and per-node
// activation counts — across repeated invocations and across GOMAXPROCS
// settings.
func TestAsyncSeededDeterminism(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Random(g, rand.New(rand.NewSource(5)))
	m := degreeSum(g.MaxDegree())
	specs := []string{"roundrobin", "random:0.3", "staleness:2", "adversary:4"}
	const seed = 77
	for _, spec := range specs {
		runOnce := func() *Result {
			sched, err := schedule.Parse(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(m, p, Options{
				MaxRounds:   50_000,
				RecordTrace: true,
				Executor:    ExecutorAsync,
				Schedule:    sched,
			})
			if err != nil {
				t.Fatalf("schedule %s: %v", spec, err)
			}
			return res
		}
		base := runOnce()
		repeat := runOnce()
		if !reflect.DeepEqual(base, repeat) {
			t.Fatalf("schedule %s seed %d: repeated run diverged", spec, seed)
		}
		prev := runtime.GOMAXPROCS(0)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got := runOnce()
			if !reflect.DeepEqual(base, got) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("schedule %s seed %d: run diverged under GOMAXPROCS=%d", spec, seed, procs)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestAsyncFixpointDetection: where the synchronous executors can only
// ErrNoHalt on a stabilising machine (algorithms.MaxConsensus), the async
// executor must detect the global fixpoint and stop early, under the
// synchronous schedule and under adversarial ones alike.
func TestAsyncFixpointDetection(t *testing.T) {
	g := graph.Caterpillar(4, 2)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	const budget = 50_000

	if _, err := Run(m, p, Options{MaxRounds: 200}); !errors.Is(err, ErrNoHalt) {
		t.Fatalf("sequential executor: err = %v, want ErrNoHalt", err)
	}
	for _, sched := range append(asyncFairSchedules(11), schedule.Synchronous()) {
		res, err := Run(m, p, Options{MaxRounds: budget, Executor: ExecutorAsync, Schedule: sched})
		if err != nil {
			t.Fatalf("schedule %s: %v", sched.Name(), err)
		}
		if !res.Fixpoint {
			t.Fatalf("schedule %s: fixpoint not detected (rounds=%d)", sched.Name(), res.Rounds)
		}
		if res.Rounds >= budget {
			t.Fatalf("schedule %s: fixpoint only at the budget", sched.Name())
		}
		for v, out := range res.Output {
			if out != "" {
				t.Fatalf("schedule %s: non-halted node %d has output %q", sched.Name(), v, out)
			}
		}
	}
}

// TestAsyncRoundRobinLatency pins the central-daemon semantics: one node
// fires per step, so a 1-round algorithm on n nodes halts in exactly n
// steps with every node having fired once.
func TestAsyncRoundRobinLatency(t *testing.T) {
	g := graph.Cycle(5)
	m := degreeSum(g.MaxDegree())
	res, err := Run(m, port.Canonical(g), Options{
		Executor: ExecutorAsync,
		Schedule: schedule.RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != g.N() {
		t.Errorf("rounds = %d, want %d", res.Rounds, g.N())
	}
	for v, f := range res.Fires {
		if f != 1 {
			t.Errorf("node %d fired %d times, want 1", v, f)
		}
	}
}

// dribble is a deliberately awkward schedule: it activates everything every
// step but delivers only one message on one link per step, exercising the
// partial-delivery path and the clamping of oversized requests.
type dribble struct{ links int }

func (d *dribble) Name() string           { return "dribble" }
func (d *dribble) Begin(nodes, links int) { d.links = links }
func (d *dribble) Step(t int, view schedule.View, dec *schedule.Decision) {
	dec.ActivateAll = true
	dec.Deliver[(t-1)%d.links] = 1 << 20 // clamped to the in-flight count
}

func TestAsyncPartialDelivery(t *testing.T) {
	g := graph.Star(4)
	m := degreeSum(g.MaxDegree())
	seq, err := Run(m, port.Canonical(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, port.Canonical(g), Options{
		MaxRounds: 10_000,
		Executor:  ExecutorAsync,
		Schedule:  &dribble{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Output, res.Output) {
		t.Fatalf("outputs differ\nseq:   %v\nasync: %v", seq.Output, res.Output)
	}
}

// TestScheduleRequiresAsyncExecutor: supplying a schedule to a synchronous
// executor is a configuration error, not a silent ignore.
func TestScheduleRequiresAsyncExecutor(t *testing.T) {
	g := graph.Path(3)
	m := degreeSum(g.MaxDegree())
	for _, exec := range []Executor{ExecutorSeq, ExecutorPool} {
		_, err := Run(m, port.Canonical(g), Options{Executor: exec, Schedule: schedule.RoundRobin()})
		if err == nil {
			t.Errorf("executor %v accepted Options.Schedule", exec)
		}
	}
}

// TestAsyncNoHalt: the async executor reports ErrNoHalt at the step budget
// when neither halting nor a fixpoint terminates the run. The spinner keeps
// changing state, so fixpoint detection can never fire.
func TestAsyncNoHalt(t *testing.T) {
	spinner := &machine.Func{
		MachineName:  "spinner",
		MachineClass: machine.ClassSB,
		MaxDeg:       2,
		InitFunc:     func(int) machine.State { return 0 },
		HaltedFunc:   func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc:     func(machine.State, int) machine.Message { return machine.NoMessage },
		StepFunc:     func(s machine.State, _ []machine.Message) machine.State { return (s.(int) + 1) % 3 },
	}
	_, err := Run(spinner, port.Canonical(graph.Cycle(3)), Options{MaxRounds: 500, Executor: ExecutorAsync})
	if !errors.Is(err, ErrNoHalt) {
		t.Errorf("err = %v, want ErrNoHalt", err)
	}
}

// dupEvery is a fault plan that duplicates every n-th delivery and
// delivers the rest unchanged.
type dupEvery struct{ n, calls int }

func (p *dupEvery) Name() string                          { return "dup-every" }
func (p *dupEvery) Begin(fault.Topology)                  {}
func (p *dupEvery) Step(int, fault.View, *fault.Decision) {}
func (p *dupEvery) Settled() bool                         { return false }
func (p *dupEvery) Filter(int, int) fault.Fate {
	p.calls++
	if p.calls%p.n == 0 {
		return fault.FateDup
	}
	return fault.FateDeliver
}

// TestLinkQueueStaysBounded drives one link's queue through 10⁵
// push/deliver/pop cycles that never empty it — its live depth alternates
// between 1 and 2 — and requires the buffer's capacity to stay within a
// small multiple of the peak live depth. With a dup on every 20th
// delivery the mail never drains and the live depth climbs to ~5,000; the
// bound must hold there too. A queue that only reclaims its consumed
// prefix when it empties grows to one slot per message ever sent.
func TestLinkQueueStaysBounded(t *testing.T) {
	const cycles = 100_000
	for _, tc := range []struct {
		name string
		plan fault.Plan
	}{{"no plan", nil}, {"dup every 20th", &dupEvery{n: 20}}} {
		as := &asyncState{
			queues: make([]linkQueue, 1),
			ready:  make([]int32, 1),
			node:   make([]int32, 1),
			plan:   tc.plan,
		}
		q := &as.queues[0]
		q.buf = make([]FlightMessage, 0, 2)
		var res Result
		q.push("m", 0)
		peak := 0
		for step := 1; step <= cycles; step++ {
			q.push("m", step)
			as.deliver(0, 1, step, &res)
			peak = max(peak, len(q.buf)-q.head)
			q.pop()
			if q.mail() == 0 && q.inFlight() == 0 {
				t.Fatalf("%s: queue emptied at step %d", tc.name, step)
			}
			if c := cap(q.buf); c > 4*peak {
				t.Fatalf("%s: cap %d after %d cycles, peak live depth %d", tc.name, c, step, peak)
			}
		}
		if tc.plan != nil && res.Dups != cycles/20 {
			t.Fatalf("%s: dups = %d, want %d", tc.name, res.Dups, cycles/20)
		}
		t.Logf("%s: peak live depth %d, final cap %d", tc.name, peak, cap(q.buf))
	}
}

// TestAsyncIgnoresWorkers: the async executor runs on one shard whatever
// Options.Workers says, as ExecutorSeq does — a run with Workers 4
// reports Shards == 1 and equals the Workers 1 run in every Result field.
func TestAsyncIgnoresWorkers(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	run := func(workers int) *Result {
		opts := hostileOpts(t, "random:0.3", workers)
		opts.RecordTrace = true
		res, err := Run(m, p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref, got := run(1), run(4)
	if got.Shards != 1 {
		t.Fatalf("workers=4: ran on %d shards, want 1", got.Shards)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("workers=4 diverged from workers=1\nworkers=1: %+v\nworkers=4: %+v", ref, got)
	}
}
