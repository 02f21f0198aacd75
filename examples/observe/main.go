// Observability walkthrough: attach the internal/obs telemetry layer to a
// partition-and-heal run and read the run back out of its own event
// journal — the workflow `weakrun -journal run.jsonl` + `tail run.jsonl`
// gives you on the command line, shown here against the library API.
//
// The engine journals every node activation, every delivery the fault
// plan interfered with (drop/dup/corrupt), every crash, recovery,
// retransmission and partition heal, and every fixpoint probe, as
// fixed-width records folded at the same barriers as the engine's
// counters. The serialized JSONL stream is deterministic: one shard or
// eight, GOMAXPROCS 1 or 32, the same seeded run serializes to the same
// bytes (pinned by TestJournalShardDeterminism), so a journal diff is a
// run diff. A metrics registry rides along and accumulates the Result
// counters into Prometheus series — `weakrun -metrics host:port` serves
// them live next to /debug/pprof.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

func main() {
	// A 6x6 torus running max-degree gossip under a partition plan: a
	// seeded island is cut off (its deliveries become correlated drops),
	// the cut heals at the horizon, and the gossip floods back across the
	// restored links until the fixpoint probe finally says "steady".
	g := graph.Torus(6, 6)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())
	plan, err := fault.Parse("partition:4,42,120", 1)
	if err != nil {
		log.Fatal(err)
	}

	// The obs hook: a JSONL journal (what -journal writes) teed with an
	// in-memory collector (so this walkthrough can group records without
	// re-parsing), plus a metrics registry (what -metrics snapshots).
	var jsonl bytes.Buffer
	var collect obs.Collect
	reg := obs.NewMetrics()
	res, err := engine.Run(m, p, engine.Options{
		Executor:  engine.ExecutorAsync,
		Schedule:  schedule.RoundRobin(),
		Fault:     plan,
		MaxRounds: 500_000,
		Obs: &obs.Obs{
			Sink:    obs.Tee{obs.NewJournalWriter(&jsonl), &collect},
			Metrics: reg,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run: %d steps, fixpoint=%v; drops=%d healed=%d\n\n",
		res.Rounds, res.Fixpoint, res.Drops, res.Healed)

	// What a journal looks like: every record carries the same five keys
	// (step, kind, node, link, arg), -1 where a dimension does not apply.
	lines := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	fmt.Printf("journal: %d records; the first three:\n", len(lines))
	for _, ln := range lines[:3] {
		fmt.Println(" ", ln)
	}

	// Group it by kind — the shape of the whole run in one histogram.
	// Fires dominate (every activation is one record), the drop count is
	// the partition seen from the receivers' side, and exactly one heal
	// record marks the step the cut was restored.
	byKind := map[obs.Kind]int{}
	for _, e := range collect.Events {
		byKind[e.Kind]++
	}
	fmt.Println("\nrecords by kind:")
	for k := obs.KindFire; k <= obs.KindDiverge; k++ {
		if byKind[k] > 0 {
			fmt.Printf("  %-10s %6d\n", k, byKind[k])
		}
	}

	// Tail the interesting part: the heal record and the probes after it.
	// The engine probes for a fixpoint every 8 steps once the plan has
	// settled — here, from the heal on — and the first probe that finds
	// every queued message steady and every δ a no-op ends the run, within
	// 8 steps of the gossip settling. Under roundrobin one node fires per
	// step, so the flood back across the restored links takes a few probes.
	fmt.Println("\nthe heal and the probes around it:")
	var healStep int64
	for _, e := range collect.Events {
		if e.Kind == obs.KindHeal {
			healStep = e.Step
			fmt.Printf("  step %-6d heal: %d links restored\n", e.Step, e.Arg)
		}
		if e.Kind == obs.KindProbe && healStep > 0 {
			verdict := "not yet steady"
			if e.Arg == 1 {
				verdict = "global fixpoint"
			}
			fmt.Printf("  step %-6d probe: %s\n", e.Step, verdict)
		}
	}

	// The drop records name the cut: every partitioned delivery is one
	// record with the link id — collapse them to the set of cut links.
	cut := map[int32]bool{}
	for _, e := range collect.Events {
		if e.Kind == obs.KindDrop {
			cut[e.Link] = true
		}
	}
	fmt.Printf("\nthe partition cut %d distinct links (%d dropped deliveries)\n",
		len(cut), byKind[obs.KindDrop])

	// And the metrics view of the same run: the registry accumulated the
	// Result counters into Prometheus series — scrape-ready via
	// Metrics.Handler(), snapshot-ready via WriteText.
	var prom strings.Builder
	if err := reg.WriteText(&prom); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmetrics snapshot (counters only):")
	for _, ln := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(ln, "weak_engine_") && !strings.Contains(ln, "_us") {
			fmt.Println(" ", ln)
		}
	}
}
