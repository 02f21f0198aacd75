package engine

// journal_test.go pins the observability invariants of ISSUE 7: the
// serialized journal of a seeded run is byte-identical across worker
// counts, GOMAXPROCS settings and repeated invocations; attaching a
// journal never changes the Result; and the metrics registry mirrors the
// Result counters exactly.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// journalRun executes one seeded run with a JSONL journal attached and
// returns the serialized journal bytes and the Result.
func journalRun(t *testing.T, m machine.Machine, p *port.Numbering, opts Options) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	opts.Obs = &obs.Obs{Sink: obs.NewJournalWriter(&buf)}
	res, err := Run(m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// hostileOpts builds the async options of one hostile-fault cell —
// byzantine corruption, a healing partition, crash/recovery and
// sender-side retransmission composed over a seeded schedule.
func hostileOpts(t testing.TB, schedSpec string, workers int) Options {
	t.Helper()
	sched, err := schedule.Parse(schedSpec, 77)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("byzantine:0.2,45,200+partition:3,46,200+crash:1,47,200+retransmit:1,48,200", 1)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		MaxRounds: 200_000,
		Executor:  ExecutorAsync,
		Workers:   workers,
		Schedule:  sched,
		Fault:     plan,
	}
}

// TestJournalShardDeterminism: for a hostile-fault cell, the JSONL
// journal is byte-identical between async runs at Workers 1 and 4, under
// GOMAXPROCS 1 and 4, and across repeated seeded runs — and the Result is
// bit-identical too.
func TestJournalShardDeterminism(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	for _, schedSpec := range []string{"sync", "random:0.3"} {
		baseJ, baseR := journalRun(t, m, p, hostileOpts(t, schedSpec, 1))
		if len(baseJ) == 0 {
			t.Fatalf("schedule=%s: empty journal", schedSpec)
		}
		// The cell must actually exercise the hostile emit sites.
		if baseR.Corruptions == 0 || baseR.Crashes == 0 || baseR.Retransmits == 0 || baseR.Healed == 0 {
			t.Fatalf("schedule=%s: hostile cell too quiet: %+v", schedSpec, baseR)
		}
		prev := runtime.GOMAXPROCS(0)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 4} {
				for rep := 0; rep < 2; rep++ {
					j, r := journalRun(t, m, p, hostileOpts(t, schedSpec, workers))
					label := fmt.Sprintf("schedule=%s procs=%d workers=%d rep=%d", schedSpec, procs, workers, rep)
					if !bytes.Equal(baseJ, j) {
						t.Fatalf("%s: journal diverged from workers=1 baseline (%d vs %d bytes)",
							label, len(j), len(baseJ))
					}
					if r.Shards = baseR.Shards; !reflect.DeepEqual(baseR, r) {
						t.Fatalf("%s: Result diverged (modulo Shards)", label)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestJournalDoesNotPerturbResult: the Result of a journaled run is
// bit-identical to the same seeded run without a journal, for the
// hostile async cell and for both synchronous executors.
func TestJournalDoesNotPerturbResult(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	plain, err := Run(m, p, hostileOpts(t, "random:0.3", 1))
	if err != nil {
		t.Fatal(err)
	}
	_, journaled := journalRun(t, m, p, hostileOpts(t, "random:0.3", 1))
	if !reflect.DeepEqual(plain, journaled) {
		t.Error("async: journaled Result differs from plain Result")
	}

	halting := algorithms.MaxDegreeWithin(g.MaxDegree(), 4)
	for _, exec := range []Executor{ExecutorSeq, ExecutorPool} {
		plain, err := Run(halting, p, Options{Executor: exec, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		_, journaled := journalRun(t, halting, p, Options{Executor: exec, Workers: 4})
		if !reflect.DeepEqual(plain, journaled) {
			t.Errorf("%v: journaled Result differs from plain Result", exec)
		}
	}
}

// TestJournalSyncExecutors: the synchronous drivers journal one fire per
// active node per round (sorted by node id within a round) and one halt
// per node, and seq and pool serialize byte-identically.
func TestJournalSyncExecutors(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxDegreeWithin(g.MaxDegree(), 4)

	var seq, pool bytes.Buffer
	var collect obs.Collect
	resSeq, err := Run(m, p, Options{Executor: ExecutorSeq,
		Obs: &obs.Obs{Sink: obs.Tee{obs.NewJournalWriter(&seq), &collect}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, p, Options{Executor: ExecutorPool, Workers: 4,
		Obs: &obs.Obs{Sink: obs.NewJournalWriter(&pool)}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), pool.Bytes()) {
		t.Fatal("seq and pool journals differ")
	}

	fires, halts := 0, 0
	lastStep, lastNode := int64(0), int32(-1)
	for _, e := range collect.Events {
		switch e.Kind {
		case obs.KindFire:
			fires++
		case obs.KindHalt:
			halts++
		default:
			t.Fatalf("unexpected %s event in a fault-free sync run", e.Kind)
		}
		if e.Step != lastStep {
			lastStep, lastNode = e.Step, -1
		}
		if e.Kind == obs.KindFire {
			if e.Node < lastNode {
				t.Fatalf("step %d: fire events not sorted by node (%d after %d)",
					e.Step, e.Node, lastNode)
			}
			lastNode = e.Node
		}
	}
	if halts != g.N() {
		t.Errorf("halt events = %d, want %d", halts, g.N())
	}
	if want := resSeq.Rounds * g.N(); fires > want || fires < g.N() {
		t.Errorf("fire events = %d, outside [%d, %d]", fires, g.N(), want)
	}
}

// TestRunMetricsMirrorResult: after a hostile journaled run, the registry
// counters equal the Result counters, the gauges describe the run, and
// the injected manual clock drove the round histograms.
func TestRunMetricsMirrorResult(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	reg := obs.NewMetrics()
	clock := &obs.ManualClock{}
	opts := hostileOpts(t, "random:0.3", 1)
	opts.Obs = &obs.Obs{Metrics: reg, Clock: clock}
	res, err := Run(algorithms.MaxConsensus(g.MaxDegree()), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Millisecond) // metrics never read the clock after the run

	counters := map[string]int64{
		MetricRuns:         1,
		MetricRounds:       int64(res.Rounds),
		MetricMessageBytes: res.MessageBytes,
		MetricDrops:        res.Drops,
		MetricDups:         res.Dups,
		MetricCorruptions:  res.Corruptions,
		MetricCrashes:      res.Crashes,
		MetricRecoveries:   res.Recoveries,
		MetricRetransmits:  res.Retransmits,
		MetricHealed:       res.Healed,
	}
	var fires int64
	for _, f := range res.Fires {
		fires += f
	}
	counters[MetricFires] = fires
	if res.Fixpoint {
		counters[MetricFixpoints] = 1
	}
	for name, want := range counters {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	gauges := map[string]int64{
		MetricNodes:  int64(g.N()),
		MetricShards: 1,
	}
	for name, want := range gauges {
		if got := reg.Gauge(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram(MetricRoundUs, "", nil).Count(); got != int64(res.Rounds) {
		t.Errorf("%s samples = %d, want %d", MetricRoundUs, got, res.Rounds)
	}
	if got := reg.Histogram(MetricRoundNodeUs, "", nil).Count(); got != int64(res.Rounds) {
		t.Errorf("%s samples = %d, want %d", MetricRoundNodeUs, got, res.Rounds)
	}
}

// TestShardPhaseHistograms: with a registry attached, every shard
// contributes one compute-phase sample per executed step (sync and async;
// async runs on one shard), and no run observes a merge phase.
func TestShardPhaseHistograms(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	// Async under a hostile cell: one firing-pass sample per step.
	reg := obs.NewMetrics()
	opts := hostileOpts(t, "random:0.3", 4)
	opts.Obs = &obs.Obs{Metrics: reg}
	res, err := Run(m, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 1 {
		t.Fatalf("shards = %d, want 1", res.Shards)
	}
	steps := reg.Histogram(MetricShardStepUs, "", nil).Count()
	if want := int64(res.Rounds); steps != want {
		t.Errorf("%s samples = %d, want one per step = %d", MetricShardStepUs, steps, want)
	}
	if got := reg.Histogram(MetricShardMergeUs, "", nil).Count(); got != 0 {
		t.Errorf("async %s samples = %d, want 0", MetricShardMergeUs, got)
	}

	// Synchronous pool executor: one compute sample per shard per round,
	// no merge phase at all.
	reg = obs.NewMetrics()
	res, err = Run(algorithms.MaxDegreeWithin(g.MaxDegree(), 4), p, Options{
		Executor: ExecutorPool,
		Workers:  2,
		Obs:      &obs.Obs{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps = reg.Histogram(MetricShardStepUs, "", nil).Count()
	if want := int64(res.Rounds * res.Shards); steps != want {
		t.Errorf("pool %s samples = %d, want rounds*shards = %d", MetricShardStepUs, steps, want)
	}
	if got := reg.Histogram(MetricShardMergeUs, "", nil).Count(); got != 0 {
		t.Errorf("pool %s samples = %d, want 0", MetricShardMergeUs, got)
	}
}
