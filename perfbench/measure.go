package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"
)

// Measurement rules, each sized against this host's noise (README.md):
//   - every op starts right after a forced GC, outside the timed region, so
//     all ops begin at the same GC phase; a workload runs several GC cycles
//     per op or, with gcOff, none;
//   - setup_s is a median over many fresh set-ups, each after a forced GC,
//     one before every timed op, so they spread over the whole run as the
//     ops do: the host's fast and slow windows last seconds, and set-ups
//     bunched into one window would all read that window's speed;
//   - allocation counts come from runtime.ReadMemStats around each op, which
//     is exact (it flushes every P's cache).

const (
	// minSetUps is the least number of fresh set-ups setup_s is the median
	// of; a run normally makes one per timed op, hundreds.
	minSetUps = 31
	// warmUpOps run before the timed ops: they fill caches and finish lazy
	// set-up, and pass through the oracle and the determinism guard.
	warmUpOps = 2
	// minOps is the least number of timed ops, so the tail percentile always
	// has ten ops beyond it.
	minOps = 20
)

// opSample is one timed op.
type opSample struct {
	dur     time.Duration
	ok      bool
	traced  bool
	mallocs uint64
	heap    uint64 // peak heap in use during the op (see timeOp)
	gcs     uint32
	gcCPU   float64 // GC CPU seconds the runtime accounted during the op
	allCPU  float64 // all CPU seconds (GOMAXPROCS × wall) over the same span
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readCPU returns the runtime's GC and total CPU seconds. The runtime
// updates both at the end of each GC cycle.
func readCPU() (gc, all float64) {
	metrics.Read(cpuMetrics)
	return cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64()
}

// timeOp runs op i after a forced GC and measures it. With gcOff the
// collector stays off for the op, and the next op's forced GC collects
// its garbage.
func timeOp(r runner, i int, tr *tracer, gcOff bool) (*opOut, opSample) {
	runtime.GC()
	if gcOff {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, all0 := readCPU()
	t0 := time.Now()
	out := r.run(i, tr)
	d := time.Since(t0)
	gc1, all1 := readCPU()
	runtime.ReadMemStats(&after)
	s := opSample{
		dur:     d,
		traced:  tr != nil,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
		gcCPU:   gc1 - gc0,
		allCPU:  all1 - all0,
		heap:    after.HeapAlloc,
	}
	// Without a GC in the op, the heap only grew (the forced GC finished
	// sweeping), so its size at the end is the op's peak. With one, the
	// heap also reached about the goal the first in-op cycle ran against.
	if s.gcs > 0 {
		s.heap = max(s.heap, before.NextGC)
	}
	return out, s
}

// runResult is everything one run measured.
type runResult struct {
	setUps   []time.Duration
	samples  []opSample
	guardErr error
	opErrs   []string
}

// timeSetUp times fresh set-up k from the seed, after a forced GC; tr, when
// non-nil, records its layer spans.
func timeSetUp(w *workload, seed int64, tr *tracer, k int) (time.Duration, error) {
	runtime.GC()
	if tr != nil {
		tr.startSetUp(k)
	}
	t0 := time.Now()
	_, err := setUp(w, seed, tr)
	return time.Since(t0), err
}

// measureOps runs warm-up ops, then timed ops for the given duration, each
// timed op preceded by one fresh set-up (setUp(k) times set-up k), and then
// more set-ups until there are minSetUps. With tr non-nil every other timed
// op is traced (ABAB), so the traced and untraced samples see the same host
// conditions; see tracedOp for how the alternation avoids aliasing with the
// input cycle. Every op goes through the oracle and the determinism guard:
// ops that repeat an input must produce identical digests, traced or not.
func measureOps(r runner, seconds time.Duration, tr *tracer, gcOff bool, setUp func(k int) (time.Duration, error), res *runResult) error {
	setUpOnce := func() error {
		d, err := setUp(len(res.setUps))
		res.setUps = append(res.setUps, d)
		return err
	}
	guard := make([]*digest, r.inputs())
	checkOp := func(i int, out *opOut) error {
		d, err := r.check(i, out)
		if err != nil {
			return err
		}
		k := i % r.inputs()
		if guard[k] == nil {
			guard[k] = &d
		} else if !bytes.Equal(guard[k][:], d[:]) && res.guardErr == nil {
			res.guardErr = fmt.Errorf("determinism guard: op %d repeated input %d but produced a different digest", i, k)
		}
		return nil
	}
	for i := range warmUpOps {
		if err := checkOp(i, r.run(i, nil)); err != nil {
			res.opErrs = append(res.opErrs, fmt.Sprintf("warm-up op %d: %v", i, err))
		}
	}
	// The timed ops end on a whole input cycle (two when traced, so each
	// input is traced as often as not): inputs cost differently, and a
	// partial cycle would move the median to another rank of the middle
	// input's samples from run to run.
	cycle := r.inputs()
	if tr != nil {
		cycle *= 2
	}
	deadline := time.Now().Add(seconds)
	for i := 0; i < minOps || time.Now().Before(deadline) || i%cycle != 0; i++ {
		if err := setUpOnce(); err != nil {
			return err
		}
		var opTr *tracer
		if tr != nil && tracedOp(i, r.inputs()) {
			opTr = tr
			tr.startOp(i)
		}
		out, s := timeOp(r, i, opTr, gcOff)
		err := checkOp(i, out)
		s.ok = err == nil
		if err != nil {
			res.opErrs = append(res.opErrs, fmt.Sprintf("op %d: %v", i, err))
		}
		if opTr != nil {
			opTr.finishOp(out)
		}
		res.samples = append(res.samples, s)
	}
	for len(res.setUps) < minSetUps {
		if err := setUpOnce(); err != nil {
			return err
		}
	}
	return nil
}

// tracedOp reports whether op i of a traced run is traced. Ops alternate;
// with an even number of inputs the alternation also flips every input
// cycle, so each input is traced as often as it is not.
func tracedOp(i, inputs int) bool {
	if inputs%2 == 0 {
		i += i / inputs
	}
	return i%2 == 1
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEnd computes the end-to-end metrics over the given samples. A failed
// op stays in the sample and counts as missing any limit (+Inf).
func endToEnd(setUps []time.Duration, samples []opSample) []metric {
	durs := make([]float64, len(samples))
	var mallocs uint64
	peaks := make([]float64, len(samples))
	ok := 0
	for i, s := range samples {
		durs[i] = s.dur.Seconds()
		if !s.ok {
			durs[i] = math.Inf(1)
		} else {
			ok++
		}
		mallocs += s.mallocs
		peaks[i] = float64(s.heap) / (1 << 20)
	}
	n := len(samples)
	tail, pct := tailOf(durs)
	su := make([]float64, len(setUps))
	for i, d := range setUps {
		su[i] = d.Seconds()
	}
	ops := fmt.Sprintf("%d ops", n)
	return []metric{
		{"op_s.p50", median(durs), "s", ops},
		{"op_s.tail", tail, "s", fmt.Sprintf("p%.2f, %d ops", pct, n)},
		{"setup_s", median(su), "s", fmt.Sprintf("median of %d set-ups", len(su))},
		{"allocs_per_op", float64(mallocs) / float64(n), "count", ops},
		{"heap_peak_mb", median(peaks), "MiB", "median over " + ops + " of the op's peak"},
		{"ok_ops_ratio", float64(ok) / float64(n), "ratio", ops},
	}
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailOf returns the highest percentile with at least ten values beyond it
// — the 11th-largest value — and which percentile that is.
func tailOf(xs []float64) (float64, float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// gcMetrics are the Go-runtime layer metrics over untraced samples.
func gcMetrics(samples []opSample) []metric {
	var gcs, gcCPU, allCPU float64
	n := 0
	for _, s := range samples {
		if s.traced {
			continue
		}
		n++
		gcs += float64(s.gcs)
		gcCPU += s.gcCPU
		allCPU += s.allCPU
	}
	share := 0.0
	if allCPU > 0 {
		share = gcCPU / allCPU
	}
	return []metric{
		{"runtime.gc_cycles_per_op", gcs / float64(max(n, 1)), "count", "untraced ops"},
		{"runtime.gc_cpu_share", share, "ratio", "GC CPU ÷ GOMAXPROCS × wall, over the GC cycles completed in untraced ops"},
	}
}

// split returns the traced and untraced samples.
func split(samples []opSample) (traced, untraced []opSample) {
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	return traced, untraced
}
