// Flight-recorder walkthrough: record a hostile run's decision stream and
// checkpoints, replay it byte-exactly with no generator in the loop, resume
// it from an intermediate snapshot, and bisect a failed stabilisation
// check to the exact first (step, node) that left the fault-free
// trajectory — the workflow `weakrun -checkpoint` / `-replay` / `-resume`
// plus `weakjournal diff` gives you on the command line, shown here
// against the library API.
//
// The recorder (internal/replay) captures every schedule decision, fault
// fate and settledness verdict in the engine's global draw order, plus a
// compact versioned binary snapshot of the full executor state every K
// steps. A replay feeds those decisions back through the ordinary Schedule
// and Plan interfaces, so the engine cannot tell it from a live run — the
// Result, the Trace and the serialized JSONL journal come back
// byte-identical, from step 0 or from any snapshot.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/replay"
	"weakmodels/internal/schedule"
	"weakmodels/internal/stabilize"
)

// m0Counter counts the silent (m0) deliveries a node has seen. Fault-free
// it is constantly zero everywhere, so it stabilises trivially — and every
// dropped message permanently bumps the receiver off that trajectory. The
// perfect workload for watching a divergence enter: the damage is monotone
// and the first fault IS the first divergence.
func m0Counter(delta int) machine.Machine {
	return &machine.Func{
		MachineName:  "m0-counter",
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc:     func(int) machine.State { return 0 },
		HaltedFunc:   func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc:     func(machine.State, int) machine.Message { return "x" },
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			count := s.(int)
			for _, m := range inbox {
				if m == machine.NoMessage {
					count++
				}
			}
			return count
		},
	}
}

// mustParse builds the seeded schedule and plan of the hostile run; both
// are stateful, so every run needs fresh instances of the same specs.
func mustParse() (engine.Options, error) {
	sched, err := schedule.Parse("random:0.3", 77)
	if err != nil {
		return engine.Options{}, err
	}
	plan, err := fault.Parse("drop:0.3,5,40", 1)
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{
		Executor:  engine.ExecutorAsync,
		Schedule:  sched,
		Fault:     plan,
		MaxRounds: 200_000,
	}, nil
}

func main() {
	// A 4x4 torus under a seeded random-subset schedule and a 30% drop
	// plan active over steps 5..45 — hostile enough to knock the
	// m0-counter off its trajectory, transient enough to reach fixpoint.
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := m0Counter(g.MaxDegree())

	// ── 1. Record ────────────────────────────────────────────────────────
	// replay.New wraps the run's Options: it interposes players on the
	// schedule and the plan, installs a K=8 checkpoint cadence, and
	// streams the recording to `saved` (the file weakrun -checkpoint
	// writes). The journal rides along untouched.
	var saved, liveJournal bytes.Buffer
	opts, err := mustParse()
	if err != nil {
		log.Fatal(err)
	}
	opts.Obs = &obs.Obs{Sink: obs.NewJournalWriter(&liveJournal)}
	ropts, recorder, err := replay.New(opts, 8, &saved)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(m, p, ropts)
	if err != nil {
		log.Fatal(err)
	}
	if err := recorder.Finish(res); err != nil {
		log.Fatal(err)
	}
	rec := recorder.Recording()
	fmt.Printf("recorded: %d steps, %d drops, fixpoint=%v; %d snapshots every 8 steps, %d bytes saved\n",
		res.Rounds, res.Drops, res.Fixpoint, len(rec.Snapshots()), saved.Len())

	// ── 2. Replay, byte-exactly ──────────────────────────────────────────
	// Load decodes what Save wrote; Replay reruns the engine with the
	// players standing in for the generators. No randomness is re-drawn,
	// yet the journal must come back byte-identical — the engine's
	// determinism contract, now testable run-vs-replay.
	loaded, err := replay.Load(bytes.NewReader(saved.Bytes()), m, p)
	if err != nil {
		log.Fatal(err)
	}
	var replayJournal bytes.Buffer
	rres, err := loaded.Replay(m, p, engine.Options{
		Executor: engine.ExecutorAsync,
		Obs:      &obs.Obs{Sink: obs.NewJournalWriter(&replayJournal)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed: %d steps; journal byte-identical: %v\n",
		rres.Rounds, bytes.Equal(liveJournal.Bytes(), replayJournal.Bytes()))

	// ── 3. Resume from an intermediate snapshot ─────────────────────────
	// Snapshots are taken after a step's journal events flush, so a
	// replay from the snapshot before step FinalStep/2 produces exactly
	// the live journal's suffix — the tail of the run without the run.
	snap := loaded.SnapshotBefore(rec.FinalStep / 2)
	var suffixJournal bytes.Buffer
	if _, err := loaded.Replay(m, p, engine.Options{
		Executor: engine.ExecutorAsync,
		Obs:      &obs.Obs{Sink: obs.NewJournalWriter(&suffixJournal)},
	}, snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed from the step-%d snapshot: journal is the live journal's suffix: %v\n",
		snap.Step, strings.HasSuffix(liveJournal.String(), suffixJournal.String()))

	// ── 4. Bisect a failed stabilisation check ──────────────────────────
	// The same hostile cell through the self-stabilisation harness with
	// Bisect on: the check records the faulty run through the flight
	// recorder, and when the end states mismatch the reference, it
	// binary-searches the snapshots and replays one snapshot interval to
	// name the exact first (step, node) off the fault-free trajectory —
	// where the damage ENTERED, not just where it ended up.
	fresh, err := mustParse()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := stabilize.CheckWith(m, p, fresh.Schedule, fresh.Fault,
		stabilize.CheckOptions{MaxSteps: 200_000, Bisect: true, BisectEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstabilisation check: %s\n", rep)
	div := rep.FirstDivergence
	if div == nil {
		log.Fatal("expected a divergence under drops")
	}

	// The divergence window: the journal records around the bisected
	// step — the drops that put the damage in flight. This is what
	// `weakjournal diff -window 3 live.jsonl replay.jsonl` prints when a
	// replay (or a patched rerun) actually diverges.
	fmt.Printf("\njournal window around the first divergence (step %d, node %d):\n", div.Step, div.Node)
	for _, ln := range strings.Split(strings.TrimRight(liveJournal.String(), "\n"), "\n") {
		var e struct {
			Step int64  `json:"step"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err == nil && e.Step >= int64(div.Step)-1 && e.Step <= int64(div.Step)+1 {
			fmt.Println(" ", ln)
		}
	}

	// The same workflow on the command line:
	//
	//	weakrun -alg max-consensus -graph torus:6x6 -executor async \
	//	  -faults drop:0.3 -checkpoint run.weakrec -journal live.jsonl
	//	weakrun -replay run.weakrec -journal replay.jsonl
	//	weakjournal diff live.jsonl replay.jsonl     # byte-identical
	//	weakrun -resume run.weakrec                  # tail from the last snapshot
	fmt.Println("\n(CLI: weakrun -checkpoint / -replay / -resume; weakjournal stats|filter|diff)")
}
