// Engine scale benchmarks: the flat-routed executors on tori, random
// regular graphs, expanders and preferential-attachment graphs across the
// three receive modes, at sizes up to n=10⁴ — plus an n=10⁵ large-graph
// sweep (BenchmarkEngineLarge*, skipped under -short so the CI bench smoke
// stays fast), an async-with-faults sweep measuring the fault-injection
// hooks under an always-active message-fault plan, and an async-byzantine
// sweep with the payload corrupter live on every delivery.
// These are the perf-trajectory benchmarks of the engine subsystem; run
//
//	go test -bench='BenchmarkEngine(Seq|Pool|Async)' -benchmem
//
// for the full sweep, or emit the machine-readable record with
//
//	BENCH_ENGINE_JSON=BENCH_engine.json go test -run TestEmitEngineBenchJSON
//
// so future PRs can compare against the committed BENCH_engine.json
// (cmd/benchdiff checks both ns/op and allocs/op).
package weakmodels_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
)

// benchMetrics is the shared metrics registry of the bench sweeps, nil
// unless BENCH_METRICS names a snapshot path. When set, every benchmarked
// engine.Run accumulates into the one registry and TestMain writes the
// Prometheus text snapshot on exit — the CI bench smoke uploads it as a
// workflow artifact next to the benchdiff digest. The registry is a fixed
// set of pre-registered series, so attaching it does not add per-op
// allocations that would skew -benchmem.
var benchMetrics = func() *obs.Metrics {
	if os.Getenv("BENCH_METRICS") == "" {
		return nil
	}
	return obs.NewMetrics()
}()

// benchObs resolves the Options.Obs hook of a benchmarked run: nil (the
// zero-overhead path) unless BENCH_METRICS is set.
func benchObs() *obs.Obs {
	if benchMetrics == nil {
		return nil
	}
	return &obs.Obs{Metrics: benchMetrics}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_METRICS"); path != "" && benchMetrics != nil {
		if err := writeBenchMetrics(path); err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_METRICS:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func writeBenchMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = benchMetrics.WriteText(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// engineBenchRounds fixes the round count so runs are comparable across
// graphs and modes.
const engineBenchRounds = 8

// constCountdown is the benchmark workload: a machine whose Send returns a
// per-port constant and whose states are small ints, so it allocates
// nothing itself and the engine's own costs dominate the profile.
func constCountdown(delta int, class machine.Class) machine.Machine {
	return constCountdownRounds(delta, class, engineBenchRounds)
}

// constCountdownRounds is constCountdown with a parameterized round count,
// for sweeps whose workload must outlive a cadence (the K=64 checkpoint
// benchmark needs more than 64 rounds to capture anything).
func constCountdownRounds(delta int, class machine.Class, rounds int) machine.Machine {
	msgs := make([]machine.Message, delta+1)
	for p := range msgs {
		msgs[p] = fmt.Sprintf("m%d", p)
	}
	return &machine.Func{
		MachineName:  "bench-countdown-" + class.String(),
		MachineClass: class,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return rounds },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			return "done", s.(int) == 0
		},
		SendFunc: func(s machine.State, p int) machine.Message {
			return msgs[p]
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			return s.(int) - 1
		},
	}
}

// engineBenchGraphs builds the benchmark graph family: tori (the paper's
// grid workloads), sparse random regular graphs, random expanders and
// preferential-attachment graphs (hub-heavy degree skew).
func engineBenchGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	rr, err := graph.RandomRegular(1000, 3, rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatal(err)
	}
	ex, err := graph.Expander(1000, 4, 13)
	if err != nil {
		tb.Fatal(err)
	}
	pa, err := graph.PreferentialAttachment(1000, 3, 17)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Graph{
		"n=1024/torus32":   graph.Torus(32, 32),
		"n=10000/torus100": graph.Torus(100, 100),
		"n=1000/rr3":       rr,
		"n=1000/expander4": ex,
		"n=1000/pa3":       pa,
	}
}

// engineBenchLargeGraphs is the n=10⁵ sweep of the ROADMAP's "sweep to
// n≈10⁶" trajectory: the two skew-prone families at two orders of
// magnitude past the base sweep. Built lazily — constructing 10⁵-node
// graphs is itself measurable work that only the large benchmarks and the
// JSON emission should pay for.
func engineBenchLargeGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	ex, err := graph.Expander(100_000, 4, 13)
	if err != nil {
		tb.Fatal(err)
	}
	pa, err := graph.PreferentialAttachment(100_000, 3, 17)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Graph{
		"n=100000/expander4": ex,
		"n=100000/pa3":       pa,
	}
}

var engineBenchModes = []machine.Class{
	machine.ClassVV, machine.ClassMV, machine.ClassSV,
}

// benchFaultPlan builds the always-active message-fault plan of the
// async-faults sweep: 5% omission + 5% duplication with an effectively
// infinite horizon, so every delivery pays the filter. Plans are stateful,
// so each run needs a fresh one.
func benchFaultPlan() fault.Plan {
	const never = 1 << 30
	return fault.Compose(fault.DropFor(7, 0.05, never), fault.DupFor(9, 0.05, never))
}

// benchByzantinePlan builds the hostile-link plan of the async-byzantine
// sweep: 10% Byzantine corruption with an effectively infinite horizon, so
// every delivery pays the filter and one in ten pays the payload rewrite,
// written in place in the link's queue. The countdown workload ignores its
// inbox, so corrupted payloads cannot change the run's length — the sweep
// isolates the corruption machinery.
func benchByzantinePlan() fault.Plan {
	const never = 1 << 30
	return fault.ByzantineFor(7, 0.10, never)
}

func benchEngineGraphs(b *testing.B, exec engine.Executor, workers int, graphs map[string]*graph.Graph, plan func() fault.Plan) {
	for gname, g := range graphs {
		p := port.Canonical(g)
		p.Routes() // compile the routing table outside the timers
		for _, mode := range engineBenchModes {
			m := constCountdown(g.MaxDegree(), mode)
			b.Run(gname+"/"+mode.Recv.String(), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts := engine.Options{Executor: exec, Workers: workers, Obs: benchObs()}
					if plan != nil {
						opts.Fault = plan()
					}
					if _, err := engine.Run(m, p, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchEngine(b *testing.B, exec engine.Executor) {
	benchEngineGraphs(b, exec, 0, engineBenchGraphs(b), nil)
}

// benchEngineLarge runs the n=10⁵ sweep; skipped under -short so the CI
// bench smoke (which passes -short) stays fast.
func benchEngineLarge(b *testing.B, exec engine.Executor) {
	if testing.Short() {
		b.Skip("n=10⁵ sweep skipped in -short mode")
	}
	benchEngineGraphs(b, exec, 0, engineBenchLargeGraphs(b), nil)
}

// BenchmarkEngineSeq sweeps the sequential executor.
func BenchmarkEngineSeq(b *testing.B) { benchEngine(b, engine.ExecutorSeq) }

// BenchmarkEnginePool sweeps the sharded worker-pool executor.
func BenchmarkEnginePool(b *testing.B) { benchEngine(b, engine.ExecutorPool) }

// BenchmarkEngineAsync sweeps the asynchronous executor under its default
// Synchronous schedule: the cost of per-link queueing relative to the
// double-buffered arena, at identical semantics.
func BenchmarkEngineAsync(b *testing.B) {
	benchEngineGraphs(b, engine.ExecutorAsync, 1, engineBenchGraphs(b), nil)
}

// BenchmarkEngineAsyncFaults sweeps the async executor with the delivery
// filter live on every message: the marginal cost of fault injection.
// Compare against BenchmarkEngineAsync; the no-plan numbers must stay
// identical to PR 2's (the zero-overhead claim benchdiff checks).
func BenchmarkEngineAsyncFaults(b *testing.B) {
	benchEngineGraphs(b, engine.ExecutorAsync, 1, engineBenchGraphs(b), benchFaultPlan)
}

// BenchmarkEngineAsyncByzantine sweeps the async executor with Byzantine
// corruption live: the delivery filter plus a 10% payload-rewrite rate.
// Compare against BenchmarkEngineAsyncFaults — the delta is the corrupter
// (RNG draws interleaved with the filter's, byte-level rewrites).
func BenchmarkEngineAsyncByzantine(b *testing.B) {
	benchEngineGraphs(b, engine.ExecutorAsync, 1, engineBenchGraphs(b), benchByzantinePlan)
}

// BenchmarkEngineLargeSeq sweeps the sequential executor at n=10⁵.
func BenchmarkEngineLargeSeq(b *testing.B) { benchEngineLarge(b, engine.ExecutorSeq) }

// BenchmarkEngineLargePool sweeps the pool executor at n=10⁵.
func BenchmarkEngineLargePool(b *testing.B) { benchEngineLarge(b, engine.ExecutorPool) }

// benchCheckpointRounds lengthens the countdown past the K=64 checkpoint
// cadence: 160 rounds capture snapshots at rounds 64 and 128, so the
// per-op cost below amortizes two full-state captures.
const benchCheckpointRounds = 160

// benchCheckpointConfigs are the checkpoint configurations of the
// checkpoint-overhead sweep. Fresh CheckpointOptions per op — the sink
// closure is part of the measured configuration.
var benchCheckpointConfigs = []struct {
	name string
	cp   func() *engine.CheckpointOptions
}{
	// off is the nil-checkpoint baseline on the same 160-round workload:
	// the cadence test costs a pointer check per round and nothing else.
	{"off", func() *engine.CheckpointOptions { return nil }},
	// k64 captures the full executor state every 64 rounds and discards
	// it: the pure cost of the state copy.
	{"k64", func() *engine.CheckpointOptions {
		return &engine.CheckpointOptions{Every: 64, Sink: func(*engine.Snapshot) error { return nil }}
	}},
	// k64-encode additionally serializes each snapshot to the versioned
	// binary form a flight recorder persists: capture plus encoding.
	{"k64-encode", func() *engine.CheckpointOptions {
		return &engine.CheckpointOptions{Every: 64, Sink: func(s *engine.Snapshot) error {
			_, err := s.MarshalBinary()
			return err
		}}
	}},
}

// benchEngineCheckpoint sweeps the checkpoint configurations on one graph
// with the 160-round countdown.
func benchEngineCheckpoint(b *testing.B, g *graph.Graph) {
	p := port.Canonical(g)
	p.Routes()
	m := constCountdownRounds(g.MaxDegree(), machine.ClassVV, benchCheckpointRounds)
	for _, c := range benchCheckpointConfigs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := engine.Options{Executor: engine.ExecutorSeq, Obs: benchObs(), Checkpoint: c.cp()}
				if _, err := engine.Run(m, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCheckpoint measures flight-recorder snapshot overhead at
// the default K=64 cadence on the n=10⁵ expander (skipped under -short
// like the rest of the large sweep): nil-checkpoint baseline vs live
// capture vs capture-plus-binary-encoding, all on the sequential executor
// so the deltas are not masked by shard scheduling.
func BenchmarkEngineCheckpoint(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10⁵ checkpoint sweep skipped in -short mode")
	}
	ex, err := graph.Expander(100_000, 4, 13)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineCheckpoint(b, ex)
}

// engineBenchRecord is one row of BENCH_engine.json.
type engineBenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestEmitEngineBenchJSON writes the engine perf record to the file named
// by BENCH_ENGINE_JSON (skipped when unset), giving every future PR a
// trajectory to compare against:
//
//	BENCH_ENGINE_JSON=BENCH_engine.json go test -run TestEmitEngineBenchJSON
func TestEmitEngineBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_ENGINE_JSON")
	if path == "" {
		t.Skip("BENCH_ENGINE_JSON not set")
	}
	var records []engineBenchRecord
	emit := func(family string, exec engine.Executor, workers int, graphs map[string]*graph.Graph, plan func() fault.Plan) {
		for gname, g := range graphs {
			p := port.Canonical(g)
			p.Routes()
			for _, mode := range engineBenchModes {
				m := constCountdown(g.MaxDegree(), mode)
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						opts := engine.Options{Executor: exec, Workers: workers, Obs: benchObs()}
						if plan != nil {
							opts.Fault = plan()
						}
						if _, err := engine.Run(m, p, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
				records = append(records, engineBenchRecord{
					Name:        fmt.Sprintf("Engine/%s/%s/%s", family, gname, mode.Recv),
					NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
					AllocsPerOp: r.AllocsPerOp(),
					BytesPerOp:  r.AllocedBytesPerOp(),
				})
			}
		}
	}
	small := engineBenchGraphs(t)
	for _, exec := range []engine.Executor{engine.ExecutorSeq, engine.ExecutorPool} {
		emit(exec.String(), exec, 0, small, nil)
	}
	// The async record: the plan-free driver plus the fault-filter and
	// Byzantine sweeps.
	emit("async", engine.ExecutorAsync, 1, small, nil)
	emit("async-faults", engine.ExecutorAsync, 1, small, benchFaultPlan)
	emit("async-byzantine", engine.ExecutorAsync, 1, small, benchByzantinePlan)
	large := engineBenchLargeGraphs(t)
	for _, exec := range []engine.Executor{engine.ExecutorSeq, engine.ExecutorPool} {
		emit(exec.String(), exec, 0, large, nil)
	}
	// The checkpoint-overhead record: the n=10⁵ expander under the
	// 160-round countdown, nil-checkpoint baseline vs K=64 capture vs
	// capture-plus-encoding (mirrors BenchmarkEngineCheckpoint).
	{
		g := large["n=100000/expander4"]
		p := port.Canonical(g)
		p.Routes()
		m := constCountdownRounds(g.MaxDegree(), machine.ClassVV, benchCheckpointRounds)
		for _, c := range benchCheckpointConfigs {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := engine.Options{Executor: engine.ExecutorSeq, Obs: benchObs(), Checkpoint: c.cp()}
					if _, err := engine.Run(m, p, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			records = append(records, engineBenchRecord{
				Name:        "Engine/checkpoint/n=100000/expander4/" + c.name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			})
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Name < records[j].Name })
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d records to %s", len(records), path)
}
