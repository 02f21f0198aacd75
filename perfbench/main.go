// Command perfbench is the repository's benchmark. It generates one of three
// seeded workloads — sync-gossip, async-hostile, modal-bridge — times one
// op at a time through the library's public API in a closed loop (one
// caller; the next op starts when the previous one returns), checks every
// op against an oracle, and prints each metric with its name, unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones (op_s.p50, op_s.tail,
// setup_s, allocs_per_op, heap_peak_mb, ok_ops_ratio); with --trace 1 the
// run interleaves untraced and traced ops and reports the per-layer
// metrics and trace_overhead_ratio, and writes its spans to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sync-gossip --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// See README.md in this directory for the workloads, their oracles and the
// sizing rationale.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// procs is the GOMAXPROCS every run uses, so the defaults that follow it —
// async auto-sharding at n ≥ 512, bisim signature-fill workers — resolve
// the same way on any host.
const procs = 2

// runSeconds is the default length of the timed loop, BENCHMARK.json's
// run_seconds.
const runSeconds = 30

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sync-gossip | async-hostile | modal-bridge | all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", runSeconds, "seconds of timed ops per workload (≥ 1)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds ≥ 1, --trace 0|1 and no positional arguments")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []*workload{w}
	}

	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range ws {
		spans := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
		rr, ms, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spans, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "/"
		}
		for _, m := range ms {
			fmt.Fprintf(stdout, "%s/%s %.6g %s (%s)\n", w.name, m.name, m.value, m.unit, m.note)
			out.Metrics[prefix+m.name] = jsonMetric{Value: finite(m.value), Unit: m.unit}
		}
		for _, e := range rr.opErrs {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, e)
		}
		if rr.guardErr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, rr.guardErr)
		}
		failed := 0
		for _, s := range rr.samples {
			if !s.ok {
				failed++
			}
		}
		out.Attempted += len(rr.samples)
		out.Failed += failed
		out.Correct = out.Correct && failed == 0 && len(rr.opErrs) == 0 && rr.guardErr == nil
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps +Inf (a tail made of failed ops) to the largest float, which
// JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// runWorkload runs one workload: host diagnostics, the timed ops with a
// fresh set-up before each, host diagnostics again. It returns the run's samples and
// its metrics: end-to-end untraced, per-layer traced.
func runWorkload(w *workload, seed int64, seconds time.Duration, traced bool, spansPath string, stdout io.Writer) (*runResult, []metric, error) {
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d %s\n",
		w.name, seed, seconds.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintln(stdout, hostDiag("before"))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rr := &runResult{}
	p, err := setUp(w, seed, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	r, err := w.prepare(p, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	setUpK := func(k int) (time.Duration, error) { return timeSetUp(w, seed, tr, k) }
	if err := measureOps(r, seconds, tr, w.gcOff, setUpK, rr); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintln(stdout, hostDiag("after"))
	if !traced {
		return rr, endToEnd(rr.setUps, rr.samples), nil
	}
	ms := tracedMetrics(tr, w, rr.samples)
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, nil, errors.Join(errors.New("writing spans"), err)
	}
	fmt.Fprintf(stdout, "# spans: %s\n", spansPath)
	return rr, ms, nil
}

// tracedMetrics are a traced run's metrics: the per-layer ones, the Go
// runtime's over the untraced ops, and the tracing overhead.
func tracedMetrics(tr *tracer, w *workload, samples []opSample) []metric {
	tracedOps, untraced := split(samples)
	ratio := 0.0
	if len(tracedOps) > 0 && len(untraced) > 0 {
		ratio = endToEnd(nil, tracedOps)[0].value / endToEnd(nil, untraced)[0].value
	}
	ms := tr.layerMetrics(w)
	ms = append(ms, gcMetrics(samples)...)
	return append(ms, metric{"trace_overhead_ratio", ratio, "ratio",
		fmt.Sprintf("traced ÷ untraced op_s.p50, %d and %d interleaved ops", len(tracedOps), len(untraced))})
}
