package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/fault"
	"weakmodels/internal/machine"
	"weakmodels/internal/schedule"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(procs)
	os.Exit(m.Run())
}

// TestTracedMatchesUntraced runs every input of every workload untraced
// and traced and requires identical digests: outputs, final states, fires,
// fault counters, and the journal and recording hashes. A wrapper that
// changed the engine's path would change one of them.
func TestTracedMatchesUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			p, err := setUp(w, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := w.prepare(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			for op := range r.inputs() {
				plain, err := r.check(op, r.run(op, nil))
				if err != nil {
					t.Fatalf("untraced op %d: %v", op, err)
				}
				tr.startOp(op)
				out := r.run(op, tr)
				traced, err := r.check(op, out)
				if err != nil {
					t.Fatalf("traced op %d: %v", op, err)
				}
				tr.finishOp(out)
				if plain != traced {
					t.Fatalf("op %d: traced digest %x differs from untraced %x", op, traced[:8], plain[:8])
				}
			}
			if tr.probes[pStep].calls.Load() == 0 {
				t.Fatal("traced ops never reached the machine wrapper")
			}
		})
	}
}

// optional lists the optional interfaces a value implements.
func optional(v any) []string {
	var got []string
	add := func(ok bool, name string) {
		if ok {
			got = append(got, name)
		}
	}
	_, g := v.(machine.MessageGuard)
	_, p := v.(machine.FixpointProber)
	_, r := v.(machine.Rebooter)
	_, in := v.(machine.InputAware)
	_, d := v.(schedule.Dilated)
	_, res := v.(schedule.Resumable)
	_, h := v.(fault.Healer)
	_, c := v.(fault.Corrupter)
	add(g, "MessageGuard")
	add(p, "FixpointProber")
	add(r, "Rebooter")
	add(in, "InputAware")
	add(d, "Dilated")
	add(res, "Resumable")
	add(h, "Healer")
	add(c, "Corrupter")
	if pl, ok := v.(fault.Plan); ok && fault.CanCorrupt(pl) {
		got = append(got, "CanCorrupt")
	}
	return got
}

type bareMachine struct{ machine.Machine }

type bareSchedule struct{ schedule.Schedule }

// TestWrappersForwardExactly checks that the schedule and plan wrappers
// carry exactly the optional interfaces of the values async-hostile wraps,
// that the machine wrapper keeps the concrete type, and that every other
// shape is refused rather than wrapped with a different set.
func TestWrappersForwardExactly(t *testing.T) {
	tr := newTracer()
	m := algorithms.MaxConsensus(3)
	if got := tr.wrapMachine(m); reflect.TypeOf(got) != reflect.TypeOf(m) {
		t.Errorf("machine wrapper is a %T, wrapped value a %T", got, m)
	}
	sched := schedule.RandomSubset(1, 0.5)
	if got, want := optional(tr.wrapSchedule(sched)), optional(sched); !slices.Equal(got, want) {
		t.Errorf("schedule: wrapper has %v, wrapped value has %v", got, want)
	}
	plan := fault.Compose(fault.ByzantineFor(1, 0.2, 50), fault.PartitionFor(2, 3, 50), fault.CrashRecoverFor(3, 1, true, 50))
	if got, want := optional(tr.wrapPlan(plan)), optional(plan); !slices.Equal(got, want) {
		t.Errorf("plan: wrapper has %v, wrapped value has %v", got, want)
	}
	refused := map[string]func(){
		"machine that is not a *machine.Func": func() { tr.wrapMachine(bareMachine{m}) },
		"schedule without Dilated/Resumable":  func() { tr.wrapSchedule(bareSchedule{schedule.RoundRobin()}) },
		// A composite has Corrupt even when it cannot lie.
		"composite that cannot corrupt": func() {
			tr.wrapPlan(fault.Compose(fault.DropFor(1, 0.2, 50), fault.PartitionFor(2, 3, 50)))
		},
		"plan that is not a Healer": func() { tr.wrapPlan(fault.ByzantineFor(1, 0.2, 50)) },
	}
	for name, wrap := range refused {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: wrapped instead of refused", name)
				}
			}()
			wrap()
		}()
	}
}

// fakeRunner's ops produce digest i for op i, so repeated inputs differ.
type fakeRunner struct{}

func (fakeRunner) inputs() int             { return 2 }
func (fakeRunner) run(int, *tracer) *opOut { return &opOut{} }
func (fakeRunner) check(i int, _ *opOut) (digest, error) {
	return digest{byte(i)}, nil
}

func TestDeterminismGuardCatchesDivergence(t *testing.T) {
	res := &runResult{}
	setUp := func(int) (time.Duration, error) { return time.Millisecond, nil }
	if err := measureOps(fakeRunner{}, time.Millisecond, nil, false, setUp, res); err != nil {
		t.Fatal(err)
	}
	if res.guardErr == nil {
		t.Fatal("ops repeating an input with different digests passed the guard")
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tailOf(xs); v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if m := median(xs); m != 50.5 {
		t.Fatalf("median of 1..100 = %v, want 50.5", m)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the program in
// step: the end-to-end list is what an untraced run reports, the per-layer
// list what a traced run reports, and run_seconds is the --seconds default.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		RunSeconds int                           `json:"run_seconds"`
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.RunSeconds != runSeconds {
		t.Errorf("--seconds defaults to %d, BENCHMARK.json's run_seconds is %d", runSeconds, bench.RunSeconds)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		return out
	}
	listed := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	one := []opSample{{dur: time.Millisecond, ok: true}}
	if got, want := names(endToEnd([]time.Duration{time.Millisecond}, one)), listed(bench.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	traced := tracedMetrics(newTracer(), &workloads[0], one)
	if got, want := names(traced), listed(bench.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
}
