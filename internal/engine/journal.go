package engine

// journal.go is the engine side of the observability layer
// (internal/obs): the per-run journal handle that passes events to the
// sink, and the metrics hooks that time rounds and mirror Result counters
// into a registry.
//
// Each driver hands events to the sink in journal order as it produces
// them; nothing is buffered, merged or sorted. The async driver runs on
// the coordinator alone, so its events happen in journal order: per step,
// crashes, recoveries and retransmissions in node/link order, the heal,
// the delivery fates in global (link, queue-position) order, then each
// firing's fire (and halt) in node id order, and the fixpoint probe. The
// sync driver's shards only record each halt's round; after the round's
// barrier the coordinator walks the nodes in id order and emits fire for
// every node that stepped and halt for every node that halted. Both
// orders are canonical — no shard count can perturb them — so the
// serialized journal of a seeded run is byte-identical for every Workers
// and GOMAXPROCS setting, which TestJournalShardDeterminism pins. A run
// that fails mid-step (a replay divergence, a panicking δ) keeps the
// events it had already produced.
//
// Everything here is nil-guarded at the emit sites: with Options.Obs nil
// (or its Sink/Metrics fields nil) the engine allocates nothing and pays
// one pointer test per guarded site — the fault-free sequential path
// keeps its committed 9 allocs/op.

import (
	"time"

	"weakmodels/internal/fault"
	"weakmodels/internal/obs"
)

// fateKind maps a non-deliver fault fate to its journal event kind.
func fateKind(f fault.Fate) obs.Kind {
	switch f {
	case fault.FateDrop:
		return obs.KindDrop
	case fault.FateDup:
		return obs.KindDup
	default:
		return obs.KindCorrupt
	}
}

// Engine metric names, as exported in the Prometheus text format. The
// *_total counters accumulate across every run that shares the registry;
// the gauges describe the most recent run; the histograms time rounds
// (sync) or schedule steps (async).
const (
	// MetricRuns counts completed runs (successful or fixpoint-stopped).
	MetricRuns = "weak_engine_runs_total"
	// MetricRounds counts executed rounds/steps across runs.
	MetricRounds = "weak_engine_rounds_total"
	// MetricMessageBytes counts delivered non-m0 message bytes.
	MetricMessageBytes = "weak_engine_message_bytes_total"
	// MetricFires counts completed node activations (async only).
	MetricFires = "weak_engine_fires_total"
	// MetricFixpoints counts runs stopped by global fixpoint detection.
	MetricFixpoints = "weak_engine_fixpoints_total"
	// MetricDrops .. MetricHealed mirror the Result fault counters.
	MetricDrops       = "weak_engine_drops_total"
	MetricDups        = "weak_engine_dups_total"
	MetricCorruptions = "weak_engine_corruptions_total"
	MetricCrashes     = "weak_engine_crashes_total"
	MetricRecoveries  = "weak_engine_recoveries_total"
	MetricRetransmits = "weak_engine_retransmits_total"
	MetricHealed      = "weak_engine_healed_total"
	// MetricNodes/MetricShards/MetricAlive describe the last run.
	MetricNodes  = "weak_engine_nodes"
	MetricShards = "weak_engine_shards"
	MetricAlive  = "weak_engine_alive"
	// MetricRoundUs is the per-round (sync) / per-step (async) wall time
	// in microseconds; MetricRoundNodeUs the same divided by the node
	// count — the µs/node/round trend the large sweeps watch.
	MetricRoundUs     = "weak_engine_round_us"
	MetricRoundNodeUs = "weak_engine_round_node_us"
	// MetricShardStepUs observes each shard's wall time in the compute
	// phase, one sample per shard per round/step. Its spread is the
	// load-imbalance signal of a pool run: a healthy sharding keeps all
	// shards' samples close. The async compute phase is the one-shard
	// firing pass: delivery runs before it, outside these samples but
	// inside MetricRoundUs.
	MetricShardStepUs = "weak_engine_shard_step_us"
	// MetricShardMergeUs is observed by no run: the async executor has no
	// merge phase. It stays exported because perfbench's traced run still
	// reads it (as 0).
	MetricShardMergeUs = "weak_engine_shard_merge_us"
)

// journal is the run's handle on its obs.Sink. All methods run on the
// coordinator goroutine, between barriers.
//
//weakvet:obs newJournal returns nil instead of a journal with a nil sink; every caller guards the *journal, so sink is non-nil by construction
type journal struct {
	sink obs.Sink
}

// newJournal returns the journal for a run, or nil when no sink is
// attached — the single check every emit site's nil guard reduces to.
func newJournal(o *obs.Obs) *journal {
	if o == nil || o.Sink == nil {
		return nil
	}
	return &journal{sink: o.Sink}
}

// event emits one record.
func (j *journal) event(e obs.Event) { j.sink.Event(e) }

// finish flushes the sink on every run exit path; a flush error surfaces
// as the run's error when the run itself succeeded.
func (j *journal) finish(err *error) {
	if ferr := j.sink.Flush(); ferr != nil && *err == nil {
		*err = ferr
	}
}

// runMetrics is the per-run metrics hook: round timing plus the final
// counter mirror. Nil when no registry is attached.
//
//weakvet:obs newRunMetrics returns nil instead of a hook with nil fields; callers guard the *runMetrics, so reg/clock/histograms are non-nil by construction
type runMetrics struct {
	reg         *obs.Metrics
	clock       obs.Clock
	nodes       int
	roundUs     *obs.Histogram
	nodeUs      *obs.Histogram
	shardStepUs *obs.Histogram
	t0, phase0  time.Duration
}

// newRunMetrics resolves the metrics hook for a run, or nil.
func newRunMetrics(o *obs.Obs, nodes int) *runMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	reg := o.Metrics
	return &runMetrics{
		reg:         reg,
		clock:       o.ResolveClock(),
		nodes:       nodes,
		roundUs:     reg.Histogram(MetricRoundUs, "wall microseconds per round (sync) or schedule step (async)", nil),
		nodeUs:      reg.Histogram(MetricRoundNodeUs, "wall microseconds per node per round", nil),
		shardStepUs: reg.Histogram(MetricShardStepUs, "per-shard wall microseconds in the compute phase", nil),
	}
}

// roundStart stamps the beginning of a round/step.
func (rm *runMetrics) roundStart() { rm.t0 = rm.clock.Now() }

// shardStep observes one shard's wall time in a compute phase.
func (rm *runMetrics) shardStep(d time.Duration) {
	rm.shardStepUs.Observe(float64(d) / float64(time.Microsecond))
}

// phaseStart stamps the start of a compute phase run inline on the
// coordinator (the async firing pass).
func (rm *runMetrics) phaseStart() { rm.phase0 = rm.clock.Now() }

// phaseEnd observes the inline phase begun at phaseStart as one shard's
// compute-phase sample.
func (rm *runMetrics) phaseEnd() { rm.shardStep(rm.clock.Now() - rm.phase0) }

// roundEnd observes the round's duration into the timing histograms.
func (rm *runMetrics) roundEnd() {
	us := float64(rm.clock.Now()-rm.t0) / float64(time.Microsecond)
	rm.roundUs.Observe(us)
	rm.nodeUs.Observe(us / float64(rm.nodes))
}

// finish mirrors the run's Result counters into the registry: the
// Prometheus series are the cross-run accumulated view of the same
// numbers Result reports per run. Called only on successful runs, on the
// coordinator.
func (rm *runMetrics) finish(res *Result) {
	reg := rm.reg
	reg.Counter(MetricRuns, "completed engine runs").Inc()
	reg.Counter(MetricRounds, "rounds (sync) / schedule steps (async) executed").Add(int64(res.Rounds))
	reg.Counter(MetricMessageBytes, "non-m0 message bytes delivered").Add(res.MessageBytes)
	if res.Fires != nil {
		var fires int64
		for _, f := range res.Fires {
			fires += f
		}
		reg.Counter(MetricFires, "completed node activations (async)").Add(fires)
	}
	if res.Fixpoint {
		reg.Counter(MetricFixpoints, "runs stopped at a detected global fixpoint").Inc()
	}
	reg.Counter(MetricDrops, "messages delivered as m0 by a fault plan").Add(res.Drops)
	reg.Counter(MetricDups, "messages duplicated by a fault plan").Add(res.Dups)
	reg.Counter(MetricCorruptions, "payloads rewritten by a Byzantine plan").Add(res.Corruptions)
	reg.Counter(MetricCrashes, "node crashes applied").Add(res.Crashes)
	reg.Counter(MetricRecoveries, "node recoveries applied").Add(res.Recoveries)
	reg.Counter(MetricRetransmits, "sender-side retransmissions injected").Add(res.Retransmits)
	reg.Counter(MetricHealed, "partitioned links healed").Add(res.Healed)
	reg.Gauge(MetricNodes, "nodes in the last run").Set(int64(len(res.States)))
	reg.Gauge(MetricShards, "runtime shards of the last run").Set(int64(res.Shards))
	alive := int64(len(res.States))
	if res.Alive != nil {
		alive = 0
		for _, a := range res.Alive {
			if a {
				alive++
			}
		}
	}
	reg.Gauge(MetricAlive, "nodes alive at the end of the last run").Set(alive)
}
