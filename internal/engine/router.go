package engine

// router.go holds the synchronous (Section 1.3) semantics: the per-run
// execution state with its shards and worker pool, the combined
// receive/step/send pass, and the one driver behind both ExecutorSeq and
// ExecutorPool.
//
// Shards are contiguous rank ranges of the graph's BFS locality order
// (graph.BFSOrder via port.Locality, cached per numbering): shard w owns
// the nodes ranked [w·n/W, (w+1)·n/W), a connected, roughly ball-shaped
// patch of the graph whose boundary cuts few links. All inboxes live in
// one flat double-buffered arena laid out in the same order: the inbox of
// the node ranked r is arena[off[r]:off[r+1]], so each shard's inbox
// slots form one contiguous region, and the routing table dest maps each
// out-port slot directly to its destination inbox slot — delivering a
// message is a single indexed store, and a low-cut sharding keeps most of
// those stores inside the sender's own region.
//
// Rounds are executed as one combined pass per node: consume the inbox
// from the current arena, step, then emit next-round messages into the
// other arena. Because every inbox slot is written by exactly one out-port
// (the numbering is a bijection) and reads only touch the current arena,
// shards run the pass concurrently with no synchronisation beyond one
// barrier per round. ExecutorPool parks one worker goroutine per shard on
// a command channel; ExecutorSeq runs its single shard inline on the
// caller — the W=1 degenerate case, bit-identical by construction and
// pinned by TestExecutorEquivalence. Workers write only their own shard's
// counters, so the round loop needs no atomics; the coordinator folds
// them at the barrier, and with a journal attached walks the nodes in id
// order to emit the round's fire and halt events.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
)

// poolWorkers resolves the shard count: Options.Workers when positive,
// else GOMAXPROCS, always within [1, n].
func poolWorkers(opts Options, n int) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// shard is one worker's share of a synchronous run: its rank range and
// the counters only it writes during a phase, which the coordinator
// folds at the barrier.
type shard struct {
	lo, hi   int   // ranks [lo, hi) of the locality order
	bytes    int64 // message bytes produced during the phase
	newHalts int   // nodes that halted during the phase
	// dur is the wall time of the shard's last step phase, stamped only
	// when the run has a clock (a metrics registry is attached).
	dur time.Duration
	// scratch is the canonicalisation buffer (capacity = max degree),
	// reused across nodes and rounds.
	scratch []machine.Message
}

// runState is the flattened execution state of one synchronous run.
type runState struct {
	m         machine.Machine
	g         *graph.Graph
	order     []int32 // locality order: rank → node id
	off       []int32 // rank-indexed CSR offsets: inbox of rank r is arena[off[r]:off[r+1]]
	dest      []int32 // locality out-slot → inbox slot in the destination arena
	broadcast bool
	recv      machine.RecvMode

	states  []machine.State  // node-indexed (shared with Result)
	halted  []bool           // node-indexed
	outputs []machine.Output // node-indexed (shared with Result)
	// haltAge[r] counts halted send passes of the node ranked r, capped at
	// 2: after a halted node has written m0 into both arenas its inbox
	// slots stay m0 forever, so further writes are skipped.
	haltAge []uint8

	// cur holds the messages consumed this round; next receives the
	// messages produced for the following round (two halves of one backing
	// array). Swapped at each barrier.
	cur, next []machine.Message

	// jr/met are the observability hooks, nil when Options.Obs does not
	// ask for them; round is the round being executed, written by the
	// coordinator before each phase (the barrier orders it against shard
	// reads). haltRound[v] is the round node v halted at, written by its
	// shard and read by the journal walk; allocated only with a journal.
	jr        *journal
	met       *runMetrics
	round     int
	haltRound []int

	// shards partition the locality order; cmds holds one command channel
	// per pool worker (nil when the shards run inline on the caller), each
	// command telling the worker whether to step a round (true) or emit
	// μ(x_0) (false). clock, set from the metrics hook, makes every step
	// phase stamp its shard's wall time.
	shards  []shard
	cmds    []chan bool
	barrier sync.WaitGroup
	clock   obs.Clock
}

// phase executes one phase over shard w: the initial μ(x_0) emission, or
// (step) one combined receive+step+send round.
func (rs *runState) phase(w int, step bool) {
	sh := &rs.shards[w]
	if !step {
		for r := sh.lo; r < sh.hi; r++ {
			rs.sendRank(r, rs.cur, sh)
		}
		return
	}
	if rs.clock == nil {
		rs.stepShard(sh)
		return
	}
	t0 := rs.clock.Now()
	rs.stepShard(sh)
	sh.dur = rs.clock.Now() - t0
}

// run executes one phase over every shard and returns once all of them
// finished — the one barrier of the engine. Coordinator-side state written
// before run is visible to the workers (the channel send orders it), and
// shard writes are visible to the coordinator after the barrier.
func (rs *runState) run(step bool) {
	if rs.cmds == nil {
		for w := range rs.shards {
			rs.phase(w, step)
		}
		return
	}
	rs.barrier.Add(len(rs.cmds))
	for _, cmd := range rs.cmds {
		cmd <- step
	}
	rs.barrier.Wait()
}

// spawn launches one persistent worker goroutine per shard, parked on its
// command channel between phases.
func (rs *runState) spawn() {
	rs.cmds = make([]chan bool, len(rs.shards))
	for w := range rs.cmds {
		rs.cmds[w] = make(chan bool, 1)
		go func(w int, cmd <-chan bool) {
			for step := range cmd {
				rs.phase(w, step)
				rs.barrier.Done()
			}
		}(w, rs.cmds[w])
	}
}

// stop shuts the pool's workers down; a no-op for inline runs.
func (rs *runState) stop() {
	for _, cmd := range rs.cmds {
		close(cmd)
	}
}

// fold merges and clears the shards' counters — the one counter-merge
// loop of the engine, run by the coordinator between barriers.
//
//weakvet:noalloc
func (rs *runState) fold() (bytes int64, halts int) {
	for w := range rs.shards {
		sh := &rs.shards[w]
		bytes += sh.bytes
		halts += sh.newHalts
		sh.bytes, sh.newHalts = 0, 0
	}
	return bytes, halts
}

// driveRounds is the round loop shared by every synchronous run: one
// phase per round over all shards, counters folded at the barrier.
// active is the count of initially non-halted nodes (> 0; callers
// short-circuit the zero-round case).
func (rs *runState) driveRounds(active int, opts Options, res *Result) error {
	maxRounds := maxRoundsOf(opts)
	startRound := 1
	var pending int64
	if opts.Resume != nil {
		// The snapshot's arena already holds the messages the next round
		// consumes (captured post-swap), so the μ(x_0) send pass is skipped.
		startRound = opts.Resume.Step + 1
		pending = opts.Resume.Pending
	} else {
		rs.run(false)
		pending, _ = rs.fold()
	}
	for round := startRound; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("%w (budget %d, machine %q on %v)",
				ErrNoHalt, maxRounds, rs.m.Name(), rs.g)
		}
		// The messages produced at the previous barrier are consumed now;
		// their bytes count only for rounds that execute.
		res.MessageBytes += pending
		rs.round = round
		if rs.met != nil {
			rs.met.roundStart()
		}
		rs.run(true)
		if rs.met != nil {
			for w := range rs.shards {
				rs.met.shardStep(rs.shards[w].dur)
			}
		}
		bytes, halts := rs.fold()
		if rs.met != nil {
			rs.met.roundEnd()
		}
		if rs.jr != nil {
			rs.journalRound()
		}
		rs.swap()
		pending = bytes
		active -= halts
		res.Rounds = round
		if opts.RecordTrace {
			rs.snapshotTrace(res)
		}
		if active == 0 {
			return nil
		}
		// Captured post-swap, after the round's journal events, so a replay
		// from round `round` emits exactly the original journal's suffix.
		if cp := opts.Checkpoint; cp != nil && round%cp.Every == 0 {
			if err := cp.Sink(rs.capture(round, res, pending)); err != nil {
				return fmt.Errorf("engine: checkpoint sink at round %d: %w", round, err)
			}
		}
	}
}

// journalRound emits the round's events in journal order: node by node in
// id order, fire for every node that stepped this round, then halt for
// the ones that halted in it.
func (rs *runState) journalRound() {
	t := int64(rs.round)
	for v, h := range rs.haltRound {
		halt := h == rs.round
		if halt || !rs.halted[v] {
			rs.jr.event(obs.Event{Step: t, Kind: obs.KindFire, Node: int32(v), Link: -1})
		}
		if halt {
			rs.jr.event(obs.Event{Step: t, Kind: obs.KindHalt, Node: int32(v), Link: -1})
		}
	}
}

// newRunState initialises states, halt flags, the arena and the shards
// (workers of them, in [1, max(n, 1)]), and returns the number of
// initially active (non-halted) nodes.
func newRunState(m machine.Machine, g *graph.Graph, p *port.Numbering, opts Options, workers int) (*runState, int, error) {
	n := g.N()
	loc := p.Locality()
	ports := len(loc.Dest)
	arena := make([]machine.Message, 2*ports)
	rs := &runState{
		m:         m,
		g:         g,
		order:     loc.Order,
		off:       loc.Off,
		dest:      loc.Dest,
		broadcast: m.Class().Send == machine.SendBroadcast,
		recv:      m.Class().Recv,
		states:    make([]machine.State, n),
		halted:    make([]bool, n),
		outputs:   make([]machine.Output, n),
		haltAge:   make([]uint8, n),
		cur:       arena[:ports:ports],
		next:      arena[ports:],
		jr:        newJournal(opts.Obs),
		met:       newRunMetrics(opts.Obs, n),
		shards:    make([]shard, workers),
	}
	if rs.jr != nil {
		rs.haltRound = make([]int, n)
	}
	if rs.met != nil {
		rs.clock = rs.met.clock
	}
	for w := range rs.shards {
		rs.shards[w] = shard{lo: w * n / workers, hi: (w + 1) * n / workers,
			scratch: make([]machine.Message, 0, g.MaxDegree())}
	}
	active := n
	for v := 0; v < n; v++ {
		s, err := initState(m, g.Degree(v), v, opts)
		if err != nil {
			return nil, 0, err
		}
		rs.states[v] = s
		if out, ok := m.Halted(s); ok {
			rs.halted[v] = true
			rs.outputs[v] = out
			active--
		}
	}
	return rs, active, nil
}

// sendRank emits the outgoing messages of the node ranked r into dst via
// the routing table. Halted nodes send m0 forever (Section 1.3) and
// contribute no bytes; after two halted passes both arenas already hold m0
// in the node's destination slots (each slot has a unique writer), so the
// stores are skipped.
//
//weakvet:noalloc
func (rs *runState) sendRank(r int, dst []machine.Message, sh *shard) {
	lo, hi := rs.off[r], rs.off[r+1]
	v := rs.order[r]
	if rs.halted[v] {
		if rs.haltAge[r] >= 2 {
			return
		}
		rs.haltAge[r]++
		for s := lo; s < hi; s++ {
			dst[rs.dest[s]] = machine.NoMessage
		}
		return
	}
	state := rs.states[v]
	if rs.broadcast {
		msg := rs.m.Send(state, 1)
		for s := lo; s < hi; s++ {
			dst[rs.dest[s]] = msg
			sh.bytes += int64(len(msg))
		}
		return
	}
	for s := lo; s < hi; s++ {
		msg := rs.m.Send(state, int(s-lo)+1)
		dst[rs.dest[s]] = msg
		sh.bytes += int64(len(msg))
	}
}

// stepShard runs the combined receive+send pass of one round over the
// shard's ranks: consume the inbox from cur, step, check halting, then
// emit the next round's messages into next. Safe to run concurrently on
// disjoint shards: writes to states/halted/outputs/haltRound are
// per-node, writes to next are per-inbox-slot (a bijection), and cur is
// read-only during the pass.
//
//weakvet:noalloc
func (rs *runState) stepShard(sh *shard) {
	for r := sh.lo; r < sh.hi; r++ {
		v := rs.order[r]
		if !rs.halted[v] {
			inbox := rs.cur[rs.off[r]:rs.off[r+1]]
			inbox = machine.CanonicalInboxInto(rs.recv, inbox, sh.scratch)
			rs.states[v] = rs.m.Step(rs.states[v], inbox)
			if out, ok := rs.m.Halted(rs.states[v]); ok {
				rs.halted[v] = true
				rs.outputs[v] = out
				sh.newHalts++
				if rs.haltRound != nil {
					rs.haltRound[v] = rs.round
				}
			}
		}
		rs.sendRank(r, rs.next, sh)
	}
}

// swap flips the double buffer at the round barrier.
func (rs *runState) swap() { rs.cur, rs.next = rs.next, rs.cur }

// runSync is the one driver behind ExecutorSeq and ExecutorPool: the
// synchronous semantics over workers BFS shards, run inline on the caller
// (ExecutorSeq, one shard) or by a pool of one worker goroutine per shard
// (spawn). Both are bit-identical for every worker count
// (TestExecutorEquivalence).
func runSync(m machine.Machine, g *graph.Graph, p *port.Numbering, opts Options, workers int, spawn bool) (res *Result, err error) {
	rs, active, err := newRunState(m, g, p, opts, workers)
	if err != nil {
		return nil, err
	}
	defer func() {
		// The journal is flushed on every exit path; a flush failure on an
		// otherwise successful run is the run's error. Metrics are mirrored
		// only for completed runs.
		if rs.jr != nil {
			rs.jr.finish(&err)
		}
		if err != nil {
			res = nil
		} else if rs.met != nil {
			rs.met.finish(res)
		}
	}()
	res = &Result{States: rs.states, Shards: workers}
	if opts.Resume != nil {
		if len(opts.Resume.SchedState) > 0 || len(opts.Resume.PlanState) > 0 {
			return nil, fmt.Errorf("engine: synchronous executors have no schedule or fault plan to restore")
		}
		if active, err = rs.restore(opts.Resume, res); err != nil {
			return nil, err
		}
		res.Rounds = opts.Resume.Step
	}
	if opts.RecordTrace {
		rs.snapshotTrace(res)
	}
	if active == 0 {
		res.Output = rs.outputs
		return res, nil
	}
	if spawn {
		rs.spawn()
		defer rs.stop()
	}
	if err := rs.driveRounds(active, opts, res); err != nil {
		return nil, err
	}
	res.Output = rs.outputs
	return res, nil
}
