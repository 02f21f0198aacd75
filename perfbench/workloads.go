package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/bisim"
	"weakmodels/internal/compile"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/replay"
	"weakmodels/internal/schedule"
)

// paEdges is the attachment count m of every workload's seeded
// preferential-attachment graph. PA rather than a regular family: hubs give
// the inbox-size mix (and the >16-entry sort) real graphs have, and the
// consensus workload has work to do only when degrees differ.
const paEdges = 3

// A workload is one scenario: a seeded graph and port numbering (the timed
// set-up) and a runner built from them, which executes one op at a time and
// checks each against an oracle.
type workload struct {
	name    string
	nodes   int
	prepare func(p *port.Numbering, seed int64) (runner, error)
	// gcOff runs each op with the collector off (README.md, "Run several
	// GC cycles per op, or none").
	gcOff bool
}

var workloads = []workload{
	{name: "sync-gossip", nodes: 5000, prepare: prepareGossip, gcOff: true},
	{name: "async-hostile", nodes: 520, prepare: prepareHostile},
	{name: "modal-bridge", nodes: 2000, prepare: prepareBridge},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// runner executes the ops of one workload. Op i uses input i % inputs().
type runner interface {
	inputs() int
	// run executes op i through the library's public API; tr is nil in
	// the untraced run.
	run(i int, tr *tracer) *opOut
	// check is the op's oracle. It runs outside the timed region and
	// returns the digest of everything the op produced, which repeated
	// inputs must reproduce exactly.
	check(i int, out *opOut) (digest, error)
}

// opOut is what one op produced.
type opOut struct {
	err error
	res *engine.Result

	journal, record streamHash        // async-hostile
	rec             *replay.Recording // async-hostile

	truth    []uint64        // modal-bridge: ‖φ‖ as a bitset
	part     bisim.Partition // modal-bridge
	dagNodes int             // modal-bridge
}

// setUp builds a workload's inputs from the seed: the graph, then the port
// numbering, then the first Routes() and the first Locality(). This is the
// set-up every sweep over one numbering pays once; setup_s times it.
func setUp(w *workload, seed int64, tr *tracer) (*port.Numbering, error) {
	sp := tr.begin("graph.PreferentialAttachment")
	g, err := graph.PreferentialAttachment(w.nodes, paEdges, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("port.Random")
	p := port.Random(g, rand.New(rand.NewSource(seed+1)))
	tr.end(sp)
	sp = tr.begin("port.Routes")
	p.Routes()
	tr.end(sp)
	sp = tr.begin("port.Locality")
	p.Locality()
	tr.end(sp)
	return p, nil
}

// ---- sync-gossip ----------------------------------------------------------

// gossipRounds is k of MaxDegreeWithin.
const gossipRounds = 16

type gossip struct {
	p    *port.Numbering
	m    machine.Machine
	want []machine.Output
}

func prepareGossip(p *port.Numbering, _ int64) (runner, error) {
	g := p.Graph()
	want := make([]machine.Output, g.N())
	for v, d := range maxDegreeWithin(g, gossipRounds) {
		want[v] = strconv.Itoa(d)
	}
	return &gossip{p: p, m: algorithms.MaxDegreeWithin(g.MaxDegree(), gossipRounds), want: want}, nil
}

func (w *gossip) inputs() int { return 1 }

func (w *gossip) run(_ int, tr *tracer) *opOut {
	m := w.m
	if tr != nil {
		m = tr.wrapMachine(m)
	}
	out := &opOut{}
	sp := tr.begin("engine.Run")
	out.res, out.err = engine.Run(m, w.p, engine.Options{Obs: tr.obs(nil)})
	tr.end(sp)
	return out
}

func (w *gossip) check(_ int, out *opOut) (digest, error) {
	if out.err != nil {
		return digest{}, out.err
	}
	d := digestOf(out.res)
	for v, o := range out.res.Output {
		if o != w.want[v] {
			return d, fmt.Errorf("node %d output %q, want %q", v, o, w.want[v])
		}
	}
	return d, nil
}

// maxDegreeWithin is the sync-gossip oracle: per node, the largest degree
// within k hops, by a depth-bounded BFS from every node that stops early
// once it meets a node of the global maximum degree.
func maxDegreeWithin(g *graph.Graph, k int) []int {
	n, top := g.N(), g.MaxDegree()
	out := make([]int, n)
	dist := make([]int, n)
	stamp := make([]int, n)
	queue := make([]int, 0, n)
	for s := range n {
		queue = append(queue[:0], s)
		stamp[s], dist[s] = s+1, 0
		best := 0
		for h := 0; h < len(queue) && best < top; h++ {
			v := queue[h]
			best = max(best, g.Degree(v))
			if dist[v] == k {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if stamp[u] != s+1 {
					stamp[u], dist[u] = s+1, dist[v]+1
					queue = append(queue, u)
				}
			}
		}
		out[s] = best
	}
	return out
}

// ---- async-hostile --------------------------------------------------------

const (
	// hostileSeeds is the length of the fixed cycle of per-op seeds; ops
	// that share a seed repeat an input, which the determinism guard
	// compares.
	hostileSeeds = 8
	// hostileP is P of the random:P schedule.
	hostileP = 0.5
	// hostileHorizon is every fault component's explicit horizon in steps.
	hostileHorizon = 200
	// snapshotEvery is the recorder's checkpoint cadence in steps.
	snapshotEvery = 64
	// replayEvery samples the ops whose recording is replayed (untimed)
	// and must reproduce the op's journal byte for byte.
	replayEvery = 8
)

type hostile struct {
	p     *port.Numbering
	m     machine.Machine
	delta int
	seeds []int64
}

func prepareHostile(p *port.Numbering, seed int64) (runner, error) {
	delta := p.Graph().MaxDegree()
	seeds := make([]int64, hostileSeeds)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 40)
	}
	return &hostile{p: p, m: algorithms.MaxConsensus(delta), delta: delta, seeds: seeds}, nil
}

func (w *hostile) inputs() int { return len(w.seeds) }

// adversary returns op i's fresh schedule and composite fault plan: the
// random:P schedule under byzantine+partition+crash+retransmit, each
// component seeded from the op's seed and given an explicit horizon.
func (w *hostile) adversary(i int) (schedule.Schedule, fault.Plan) {
	s := w.seeds[i%len(w.seeds)]
	return schedule.RandomSubset(s, hostileP), fault.Compose(
		fault.ByzantineFor(s+1, 0.2, hostileHorizon),
		fault.PartitionFor(s+2, 8, hostileHorizon),
		fault.CrashRecoverFor(s+3, 2, true, hostileHorizon),
		fault.RetransmitFor(s+4, 2, hostileHorizon),
	)
}

func (w *hostile) run(i int, tr *tracer) *opOut {
	sched, plan := w.adversary(i)
	out := &opOut{}
	var sink obs.Sink = obs.NewJournalWriter(&out.journal)
	m := w.m
	if tr != nil {
		m, sched, plan, sink = tr.wrapMachine(m), tr.wrapSchedule(sched), tr.wrapPlan(plan), tr.wrapSink(sink)
	}
	opts := engine.Options{
		Executor: engine.ExecutorAsync,
		Schedule: sched,
		Fault:    plan,
		Obs:      tr.obs(sink),
	}
	opts, recorder, err := replay.New(opts, snapshotEvery, &out.record)
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		opts.Checkpoint.Sink = tr.wrapCheckpoint(opts.Checkpoint.Sink)
	}
	sp := tr.begin("engine.Run")
	out.res, out.err = engine.Run(m, w.p, opts)
	tr.end(sp)
	if out.err == nil {
		sp = tr.begin("Recorder.Finish")
		out.err = recorder.Finish(out.res)
		tr.end(sp)
	}
	out.rec = recorder.Recording()
	return out
}

func (w *hostile) check(i int, out *opOut) (digest, error) {
	if out.err != nil {
		return digest{}, out.err
	}
	res := out.res
	d := digestOf(res, out.journal.sum(), out.record.sum())
	if !res.Fixpoint {
		return d, errors.New("run ended without a detected fixpoint")
	}
	for v, s := range res.States {
		if res.Alive != nil && !res.Alive[v] {
			continue
		}
		if s.(int) != w.delta {
			return d, fmt.Errorf("live node %d stabilised at %v, want Δ=%d", v, s, w.delta)
		}
	}
	if i%replayEvery == 0 {
		var h streamHash
		if _, err := out.rec.Replay(w.m, w.p, engine.Options{Obs: &obs.Obs{Sink: obs.NewJournalWriter(&h)}}, nil); err != nil {
			return d, err
		}
		if !bytes.Equal(h.sum(), out.journal.sum()) {
			return d, errors.New("replaying the recording did not reproduce the journal")
		}
	}
	return d, nil
}

// ---- modal-bridge ---------------------------------------------------------

// bridgeShapes are the formula skeletons of the modal-bridge batch, in the
// parser's syntax with D for a ⟨∗,∗⟩ diamond and p for a degree
// proposition; the even-numbered shapes are graded. The batch is fixed up
// to the graph: propositions cycle over the graph's three most common
// degrees and grades over 1..3, so every seed's batch has the same shapes
// and about the same cost per formula (which depends on the modal depth,
// the subformula count and how many nodes a proposition settles early).
// An odd count keeps the median op inside one shape's samples.
var bridgeShapes = []string{
	"D p",
	"!(D p)",
	"(D p) & p",
	"D (p | p)",
	"D (D p)",
	"D (p & (D p))",
	"(!(D (D p))) | p",
	"(D p) & (D (D p))",
	"D (D (D p))",
	"D ((!(D p)) & (D (D p)))",
	"D (D (p & (!(D p))))",
}

type bridge struct {
	p        *port.Numbering
	delta    int
	formulas []logic.Formula
}

func prepareBridge(p *port.Numbering, _ int64) (runner, error) {
	g := p.Graph()
	model := kripke.FromPorts(p, kripke.VariantMM)
	common := commonDegrees(g, 3)
	w := &bridge{p: p, delta: g.MaxDegree()}
	for j, shape := range bridgeShapes {
		// A formula true or false everywhere checks nothing: rotate the
		// propositions until the truth set is non-trivial.
		for rot := 0; ; rot++ {
			if rot == len(common) {
				return nil, fmt.Errorf("no non-trivial instance of shape %q", shape)
			}
			f, err := instantiate(shape, common, rot, j%2 == 0)
			if err != nil {
				return nil, err
			}
			if c := countTrue(logic.Eval(model, f)); c > 0 && c < g.N() {
				w.formulas = append(w.formulas, f)
				break
			}
		}
	}
	return w, nil
}

// commonDegrees returns the k most frequent degrees of g, most frequent
// first (ties to the smaller degree).
func commonDegrees(g *graph.Graph, k int) []int {
	count := make([]int, g.MaxDegree()+1)
	for v := range g.N() {
		count[g.Degree(v)]++
	}
	degs := make([]int, 0, len(count))
	for d, c := range count {
		if c > 0 {
			degs = append(degs, d)
		}
	}
	slices.SortStableFunc(degs, func(a, b int) int { return count[b] - count[a] })
	return degs[:min(k, len(degs))]
}

// instantiate fills a shape: the i-th p becomes q_d for d = degs[(i+rot) %
// len(degs)], each D a ⟨∗,∗⟩ diamond, with grades cycling over 1..3 when
// graded.
func instantiate(shape string, degs []int, rot int, graded bool) (logic.Formula, error) {
	var b strings.Builder
	props, diamonds := rot, 0
	for _, r := range shape {
		switch r {
		case 'p':
			b.WriteString(kripke.DegreeProp(degs[props%len(degs)]))
			props++
		case 'D':
			k := 1
			if graded {
				k = 1 + diamonds%3
			}
			diamonds++
			fmt.Fprintf(&b, "<*,*>=%d", k)
		default:
			b.WriteRune(r)
		}
	}
	return logic.Parse(b.String())
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func (w *bridge) inputs() int { return len(w.formulas) }

func (w *bridge) run(i int, tr *tracer) *opOut {
	f := w.formulas[i%len(w.formulas)]
	out := &opOut{}
	sp := tr.begin("compile.MachineFromFormula")
	m, variant, err := compile.MachineFromFormula(f, w.delta)
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	sp = tr.begin("kripke.FromPorts")
	model := kripke.FromPorts(w.p, variant)
	tr.end(sp)
	sp = tr.begin("kripke.CSR")
	model.CSR()
	tr.end(sp)
	sp = tr.begin("logic.Intern")
	in := logic.NewInterner()
	id := in.Intern(f)
	tr.end(sp)
	sp = tr.begin("logic.Eval")
	out.truth = logic.NewEvaluator(model, in).Eval(id)
	tr.end(sp)
	out.dagNodes = in.Len()
	if tr != nil {
		m = tr.wrapMachine(m)
	}
	sp = tr.begin("engine.Run")
	out.res, out.err = engine.Run(m, w.p, engine.Options{Obs: tr.obs(nil)})
	tr.end(sp)
	sp = tr.begin("bisim.Compute")
	out.part = bisim.Compute(model, bisim.Options{Graded: true, MaxRounds: logic.ModalDepth(f)})
	tr.end(sp)
	return out
}

// check is Theorem 2 (the machine's outputs are ‖φ‖) and Fact 1 (‖φ‖ is a
// union of graded-bisimulation classes). The refinement stops at md(φ)
// rounds: on a PA graph full graded bisimilarity separates almost every
// node, which would make the check vacuous, while md(φ)-round classes are
// coarse and φ, of modal depth md(φ), cannot split them.
func (w *bridge) check(i int, out *opOut) (digest, error) {
	if out.err != nil {
		return digest{}, out.err
	}
	partBytes := make([]byte, 0, 4*len(out.part))
	for _, c := range out.part {
		partBytes = fmt.Appendf(partBytes, "%d,", c)
	}
	truthBytes := fmt.Appendf(nil, "%x", out.truth)
	d := digestOf(out.res, truthBytes, partBytes)
	classTruth := make([]int8, out.part.NumClasses())
	for v, o := range out.res.Output {
		sat := out.truth[v/64]>>(v%64)&1 == 1
		if (o == "1") != sat {
			return d, fmt.Errorf("formula %d: node %d machine output %q, model checking says %v", i%len(w.formulas), v, o, sat)
		}
		bit := int8(1)
		if sat {
			bit = 2
		}
		switch c := out.part[v]; classTruth[c] {
		case 0:
			classTruth[c] = bit
		case bit:
		default:
			return d, fmt.Errorf("formula %d: graded-bisimulation class %d is split by the truth set", i%len(w.formulas), c)
		}
	}
	return d, nil
}

// ---- digests --------------------------------------------------------------

// digest fingerprints everything an op produced.
type digest [sha256.Size]byte

// digestOf hashes a Result's outputs, final states, counters and fates,
// plus any stream hashes or extra encodings the workload adds.
func digestOf(res *engine.Result, extra ...[]byte) digest {
	h := sha256.New()
	fmt.Fprintf(h, "rounds=%d bytes=%d fixpoint=%v\n", res.Rounds, res.MessageBytes, res.Fixpoint)
	for v, o := range res.Output {
		fmt.Fprintf(h, "%s|%v;", o, res.States[v])
	}
	fmt.Fprintf(h, "\nfires=%v alive=%v\n", res.Fires, res.Alive)
	fmt.Fprintf(h, "drops=%d dups=%d corruptions=%d crashes=%d recoveries=%d retransmits=%d healed=%d\n",
		res.Drops, res.Dups, res.Corruptions, res.Crashes, res.Recoveries, res.Retransmits, res.Healed)
	for _, e := range extra {
		h.Write(e)
		h.Write([]byte{0})
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// streamHash is the in-process writer the journal and the recording stream
// into: it counts and hashes the bytes.
type streamHash struct {
	n int64
	h hash.Hash
}

func (s *streamHash) Write(b []byte) (int, error) {
	if s.h == nil {
		s.h = sha256.New()
	}
	s.n += int64(len(b))
	return s.h.Write(b)
}

// sum returns the hash of everything written so far.
func (s *streamHash) sum() []byte {
	if s.h == nil {
		s.h = sha256.New()
	}
	return s.h.Sum(nil)
}
