package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weakmodels/internal/engine"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
)

// The traced run measures each layer from outside the library: spans
// around the coarse calls into a layer's public functions, and counted,
// 1-in-sampleEvery timed probes on the fine-grained boundaries the engine
// calls back through (δ, μ, Halted, Schedule.Step, Plan.Filter/Corrupt/
// Step, Sink.Event), via the forwarding wrappers of wrap.go.

// sampleEvery is k of the 1-in-k timing sample on fine-grained probes. One
// time.Now/time.Since pair costs about as much as a gossip δ call, so
// timing every call would double what it measures.
const sampleEvery = 16

// probe is a fine-grained boundary.
type probe int

const (
	pStep probe = iota
	pSend
	pHalted
	pSchedStep
	pPlanStep
	pFilter
	pCorrupt
	pSinkEvent
	numProbes
)

// probeStats is one probe's counters, padded to a cache line: the sharded
// async executor calls δ and μ from two workers at once.
type probeStats struct {
	calls   atomic.Int64
	samples atomic.Int64
	ns      atomic.Int64
	_       [40]byte
}

// span is one timed call into a layer. Op ids ≥ 0 are ops; set-up k has
// op id -(k+1).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer collects one traced run's spans, probes and counters. Spans are
// opened and closed on the calling goroutine only (the engine calls its
// checkpoint sink on the caller, too); probes and counters are atomic.
// All methods are safe on a nil *tracer, which is the untraced run.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	open   []int

	probes  [numProbes]probeStats
	timerNs float64 // mean cost of an empty time.Now/time.Since pair

	inboxMsgs   atomic.Int64
	activations int64
	deliveries  int64

	// useful-fire accounting for the async executor: δ calls made before
	// each step began, and the last step in which δ changed a state.
	trackChanges bool
	curStep      atomic.Int64
	lastChange   atomic.Int64
	callsAt      []int64
	usefulCalls  int64
	allCalls     int64

	inboxMu sync.Mutex
	inboxes []recordedInbox

	reg *obs.Metrics

	ops  int
	sums opSums
}

// opSums accumulates what the traced ops' results report.
type opSums struct {
	nodeRounds, msgBytes, fires, steps                                 float64
	drops, dups, corruptions, crashes, recoveries, retransmits, healed float64
	journalBytes, recordBytes, dagNodes, classes                       float64
}

// recordedInbox is a copy of a sampled δ inbox, for the canonicalisation
// micro-measurement.
type recordedInbox struct {
	mode  machine.RecvMode
	inbox []machine.Message
}

// maxRecordedInboxes caps the inbox sample. The copies keep their messages
// alive, and a larger live heap would thin out the GC cycles of every later
// op in the traced run.
const maxRecordedInboxes = 512

func newTracer() *tracer {
	return &tracer{origin: time.Now(), op: -1, reg: obs.NewMetrics(), timerNs: timerCost()}
}

// timerCost measures the empty interval of a time.Now/time.Since pair, which
// every sampled probe includes and the estimates subtract.
func timerCost() float64 {
	const reps = 1 << 16
	best := 0.0
	for range 5 {
		var total time.Duration
		for range reps {
			t0 := time.Now()
			total += time.Since(t0)
		}
		if m := float64(total) / reps; best == 0 || m < best {
			best = m
		}
	}
	return best
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span named after the call it wraps.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// obs returns the observability bundle a run gets: sink alone untraced,
// plus the tracer's metrics registry (the engine's per-shard step/merge
// histograms) when traced.
func (t *tracer) obs(sink obs.Sink) *obs.Obs {
	if t == nil {
		if sink == nil {
			return nil
		}
		return &obs.Obs{Sink: sink}
	}
	return &obs.Obs{Sink: sink, Metrics: t.reg}
}

// sample counts one call at p and reports whether this call is timed.
func (t *tracer) sample(p probe) bool {
	return t.probes[p].calls.Add(1)%sampleEvery == 0
}

// observe records a timed call that started at t0.
func (t *tracer) observe(p probe, t0 time.Time) {
	d := time.Since(t0)
	t.probes[p].samples.Add(1)
	t.probes[p].ns.Add(int64(d))
}

// estimate is the probe's estimated total time: calls × the sampled mean,
// less the timer's own cost.
func (t *tracer) estimate(p probe) time.Duration {
	st := &t.probes[p]
	n := st.samples.Load()
	if n == 0 {
		return 0
	}
	mean := max(float64(st.ns.Load())/float64(n)-t.timerNs, 0)
	return time.Duration(mean * float64(st.calls.Load()))
}

// startSetUp marks the start of traced set-up k.
func (t *tracer) startSetUp(k int) { t.op = -(k + 1) }

// startOp resets the per-op state before traced op i.
func (t *tracer) startOp(i int) {
	t.op = i
	t.curStep.Store(0)
	t.lastChange.Store(-1)
	t.callsAt = t.callsAt[:0]
}

// stepBegins is called by the traced schedule before step s fires.
func (t *tracer) stepBegins(s int) {
	for len(t.callsAt) <= s {
		t.callsAt = append(t.callsAt, t.probes[pStep].calls.Load())
	}
	t.curStep.Store(int64(s))
}

// finishOp folds a finished traced op into the run's totals. It keeps
// nothing of the op, so the traced run's live heap matches the untraced one.
func (t *tracer) finishOp(out *opOut) {
	t.ops++
	s := &t.sums
	s.journalBytes += float64(out.journal.n)
	s.recordBytes += float64(out.record.n)
	s.dagNodes += float64(out.dagNodes)
	s.classes += float64(out.part.NumClasses())
	res := out.res
	if res == nil {
		return
	}
	s.msgBytes += float64(res.MessageBytes)
	s.steps += float64(res.Rounds)
	if res.Fires != nil {
		var fires int64
		for _, f := range res.Fires {
			fires += f
		}
		s.fires += float64(fires)
		s.nodeRounds += float64(fires)
	} else {
		s.nodeRounds += float64(len(res.States) * res.Rounds)
	}
	s.drops += float64(res.Drops)
	s.dups += float64(res.Dups)
	s.corruptions += float64(res.Corruptions)
	s.crashes += float64(res.Crashes)
	s.recoveries += float64(res.Recoveries)
	s.retransmits += float64(res.Retransmits)
	s.healed += float64(res.Healed)
	if !t.trackChanges {
		return
	}
	total := t.probes[pStep].calls.Load()
	start := int64(0)
	if len(t.callsAt) > 0 {
		start = t.callsAt[0]
	}
	useful := start
	if last := int(t.lastChange.Load()); last >= 0 {
		useful = total
		if last+1 < len(t.callsAt) {
			useful = t.callsAt[last+1]
		}
	}
	t.usefulCalls += useful - start
	t.allCalls += total - start
}

// recordInbox keeps a copy of a sampled inbox.
func (t *tracer) recordInbox(mode machine.RecvMode, inbox []machine.Message) {
	t.inboxMu.Lock()
	if len(t.inboxes) < maxRecordedInboxes {
		t.inboxes = append(t.inboxes, recordedInbox{mode: mode, inbox: slices.Clone(inbox)})
	}
	t.inboxMu.Unlock()
}

// canonNsPerMsg times machine.CanonicalInboxInto on the recorded inbox-size
// mix. The engine hands δ the canonical (sorted) inbox, so each recorded
// inbox is shuffled back into a seeded arrival order first.
func (t *tracer) canonNsPerMsg() float64 {
	if len(t.inboxes) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	msgs, longest := 0, 0
	raw := make([]recordedInbox, len(t.inboxes))
	for i, r := range t.inboxes {
		in := slices.Clone(r.inbox)
		rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		raw[i] = recordedInbox{mode: r.mode, inbox: in}
		msgs += len(in)
		longest = max(longest, len(in))
	}
	if msgs == 0 {
		return 0
	}
	scratch := make([]machine.Message, longest)
	best := 0.0
	for range 5 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for _, r := range raw {
				machine.CanonicalInboxInto(r.mode, r.inbox, scratch)
			}
			reps++
		}
		ns := float64(time.Since(t0)) / float64(reps*msgs)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// selfTimes fills every span's self time: its duration less the part its
// child spans cover (children of one span are sequential).
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// spanTotal sums the durations of the op spans named name.
func (t *tracer) spanTotal(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Op >= 0 && s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// setUpMedian is the median duration of the set-up spans named name.
func (t *tracer) setUpMedian(name string) time.Duration {
	var ds []float64
	for _, s := range t.spans {
		if s.Op < 0 && s.Name == name {
			ds = append(ds, float64(s.End-s.Start))
		}
	}
	return time.Duration(median(ds))
}

// writeSpans writes every span as one JSON line to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics computes every per-layer metric of the traced ops. Times
// and counts are means per traced op unless the name says otherwise; a
// layer the workload bypasses reports 0.
func (t *tracer) layerMetrics(w *workload) []metric {
	t.selfTimes()
	ops := float64(max(t.ops, 1))
	perOp := func(x float64) float64 { return x / ops }
	secs := func(d time.Duration) float64 { return d.Seconds() / ops }
	calls := func(p probe) float64 { return perOp(float64(t.probes[p].calls.Load())) }

	sums := &t.sums

	run := t.spanTotal("engine.Run")
	var callbacks time.Duration
	for p := range numProbes {
		callbacks += t.estimate(p)
	}
	callbacks += t.spanTotal("Checkpoint.Sink")
	nsPerNodeRound := 0.0
	if sums.nodeRounds > 0 {
		nsPerNodeRound = float64(run) / sums.nodeRounds
	}
	useful := 0.0
	if t.allCalls > 0 {
		useful = float64(t.usefulCalls) / float64(t.allCalls)
	}
	hist := func(name string) float64 { return t.reg.Histogram(name, "", nil).Sum() / 1e6 / ops }
	compiled := w.name == "modal-bridge"
	onlyIf := func(ok bool, x float64) float64 {
		if ok {
			return x
		}
		return 0
	}

	setUps := fmt.Sprintf("median over %d set-ups", t.spanCount("port.Random", false))
	ms := []metric{
		{"graph.build_s", t.setUpMedian("graph.PreferentialAttachment").Seconds(), "s", setUps},
		{"port.number_s", t.setUpMedian("port.Random").Seconds(), "s", setUps},
		{"port.routes_s", t.setUpMedian("port.Routes").Seconds(), "s", setUps},
		{"port.locality_s", t.setUpMedian("port.Locality").Seconds(), "s", setUps},

		{"engine.run_s", secs(run), "s", ""},
		{"engine.self_s", secs(run - callbacks), "s", "engine.Run less the probes' and checkpoint sink's estimated time"},
		{"engine.node_rounds", perOp(sums.nodeRounds), "count", "n × rounds (sync) or fires (async)"},
		{"engine.ns_per_node_round", nsPerNodeRound, "ns", ""},
		{"engine.message_bytes", perOp(sums.msgBytes), "bytes", ""},
		{"engine.fires", perOp(sums.fires), "count", ""},
		{"engine.steps", perOp(sums.steps), "count", "Result.Rounds: rounds (sync) or schedule steps (async)"},
		{"engine.useful_fire_ratio", useful, "ratio", "δ calls up to the last step where δ changed a state ÷ all δ calls"},
		{"engine.shard_step_s", hist(engine.MetricShardStepUs), "s", "sum over shards"},
		{"engine.merge_s", hist(engine.MetricShardMergeUs), "s", "sum over shards"},

		{"machine.step_calls", calls(pStep), "count", ""},
		{"machine.step_s", secs(t.estimate(pStep)), "s", "summed over shards"},
		{"machine.send_calls", calls(pSend), "count", ""},
		{"machine.send_s", secs(t.estimate(pSend)), "s", "summed over shards"},
		{"machine.halted_calls", calls(pHalted), "count", ""},
		{"machine.halted_s", secs(t.estimate(pHalted)), "s", "summed over shards"},
		{"machine.inbox_msgs", perOp(float64(t.inboxMsgs.Load())), "count", ""},
		{"machine.canon_ns_per_msg", t.canonNsPerMsg(), "ns", "CanonicalInboxInto on the sampled inboxes"},

		{"schedule.step_calls", calls(pSchedStep), "count", ""},
		{"schedule.step_s", secs(t.estimate(pSchedStep)), "s", ""},
		{"schedule.activations", perOp(float64(t.activations)), "count", "requested"},
		{"schedule.deliveries", perOp(float64(t.deliveries)), "count", "requested, clamped to in-flight"},

		{"fault.step_calls", calls(pPlanStep), "count", ""},
		{"fault.step_s", secs(t.estimate(pPlanStep)), "s", ""},
		{"fault.filter_calls", calls(pFilter), "count", ""},
		{"fault.filter_s", secs(t.estimate(pFilter)), "s", ""},
		{"fault.corrupt_calls", calls(pCorrupt), "count", ""},
		{"fault.corrupt_s", secs(t.estimate(pCorrupt)), "s", ""},
		{"fault.drops", perOp(sums.drops), "count", ""},
		{"fault.dups", perOp(sums.dups), "count", ""},
		{"fault.corruptions", perOp(sums.corruptions), "count", ""},
		{"fault.crashes", perOp(sums.crashes), "count", ""},
		{"fault.recoveries", perOp(sums.recoveries), "count", ""},
		{"fault.retransmits", perOp(sums.retransmits), "count", ""},
		{"fault.healed", perOp(sums.healed), "count", ""},

		{"obs.events", calls(pSinkEvent), "count", ""},
		{"obs.sink_s", secs(t.estimate(pSinkEvent)), "s", ""},
		{"obs.journal_bytes", perOp(sums.journalBytes), "bytes", ""},

		{"replay.record_bytes", perOp(sums.recordBytes), "bytes", ""},
		{"replay.snapshots", perOp(float64(t.spanCount("Checkpoint.Sink", true))), "count", ""},
		{"replay.snapshot_s", secs(t.spanTotal("Checkpoint.Sink")), "s", ""},
		{"replay.finish_s", secs(t.spanTotal("Recorder.Finish")), "s", ""},

		{"compile.compile_s", secs(t.spanTotal("compile.MachineFromFormula")), "s", ""},
		{"compile.run_s", onlyIf(compiled, secs(run)), "s", ""},
		{"compile.step_calls", onlyIf(compiled, calls(pStep)), "count", ""},
		{"compile.step_s", onlyIf(compiled, secs(t.estimate(pStep))), "s", ""},

		{"kripke.model_s", secs(t.spanTotal("kripke.FromPorts")), "s", ""},
		{"kripke.csr_s", secs(t.spanTotal("kripke.CSR")), "s", ""},
		{"logic.intern_s", secs(t.spanTotal("logic.Intern")), "s", ""},
		{"logic.eval_s", secs(t.spanTotal("logic.Eval")), "s", ""},
		{"logic.dag_nodes", perOp(sums.dagNodes), "count", ""},
		{"bisim.refine_s", secs(t.spanTotal("bisim.Compute")), "s", ""},
		{"bisim.classes", perOp(sums.classes), "count", ""},
	}
	for i := 4; i < len(ms); i++ {
		ms[i].note = strings.TrimPrefix(ms[i].note+fmt.Sprintf("; %d traced ops", t.ops), "; ")
	}
	return ms
}

// spanCount counts the op spans (or, with ops false, the set-up spans)
// named name.
func (t *tracer) spanCount(name string, ops bool) int {
	c := 0
	for _, s := range t.spans {
		if (s.Op >= 0) == ops && s.Name == name {
			c++
		}
	}
	return c
}
