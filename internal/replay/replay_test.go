package replay

// replay_test.go pins the flight-recorder contract: a recorded hostile run
// replays byte-exactly — Result, trace, journal — from step 0 and from any
// snapshot, across worker counts and GOMAXPROCS; the WRPLAY03 file format
// round-trips and tolerates kill-truncated tails; and divergence bisection
// names the exact first off-trajectory (step, node), cross-checked against
// a full scan and against the journal's own fault events.

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// hostileOpts mirrors the engine package's hostile cell: byzantine
// corruption, healing partition, crash/recovery and retransmission on a
// random schedule.
func hostileOpts(t testing.TB, workers int) engine.Options {
	t.Helper()
	sched, err := schedule.Parse("random:0.3", 77)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("byzantine:0.2,45,200+partition:3,46,200+crash:1,47,200+retransmit:1,48,200", 1)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Options{
		MaxRounds: 200_000,
		Executor:  engine.ExecutorAsync,
		Workers:   workers,
		Schedule:  sched,
		Fault:     plan,
	}
}

func jsonl(events []obs.Event) []byte {
	var b []byte
	for _, e := range events {
		b = obs.AppendJSONL(b, e)
	}
	return b
}

func journalAfter(events []obs.Event, step int) []byte {
	var tail []obs.Event
	for _, e := range events {
		if e.Step > int64(step) {
			tail = append(tail, e)
		}
	}
	return jsonl(tail)
}

// recordHostile records one hostile run (in-memory or streamed to w) and
// returns the recording plus the recorded run's result, trace and journal.
func recordHostile(t testing.TB, w *bytes.Buffer) (*Recording, *engine.Result, []obs.Event) {
	t.Helper()
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	opts := hostileOpts(t, 1)
	opts.RecordTrace = true
	var events obs.Collect
	opts.Obs = &obs.Obs{Sink: &events}
	var out io.Writer
	if w != nil {
		out = w
	}
	ropts, rec, err := New(opts, 8, out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(m, p, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(res); err != nil {
		t.Fatal(err)
	}
	if res.Corruptions == 0 || res.Crashes == 0 || res.Retransmits == 0 || res.Healed == 0 {
		t.Fatalf("hostile cell too quiet: %+v", res)
	}
	if len(rec.Recording().Snapshots()) < 3 {
		t.Fatalf("only %d snapshots over %d steps", len(rec.Recording().Snapshots()), res.Rounds)
	}
	return rec.Recording(), res, events.Events
}

// checkReplay replays rec from `from` and asserts byte-exactness against
// the recorded run.
func checkReplay(t *testing.T, label string, rec *Recording, ref *engine.Result, refEvents []obs.Event, from *engine.Snapshot, workers int) {
	t.Helper()
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	var events obs.Collect
	res, err := rec.Replay(m, p, engine.Options{
		Workers:     workers,
		RecordTrace: true,
		Obs:         &obs.Obs{Sink: &events},
	}, from)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fromStep := 0
	if from != nil {
		fromStep = from.Step
	}
	got, want := *res, *ref
	got.Shards = ref.Shards
	gotTrace := got.Trace
	got.Trace, want.Trace = nil, nil
	if !reflect.DeepEqual(&want, &got) {
		t.Fatalf("%s: replayed Result diverged\nref: %+v\ngot: %+v", label, want, got)
	}
	if !reflect.DeepEqual(ref.Trace[fromStep:], gotTrace) {
		t.Fatalf("%s: replayed trace is not the recorded tail", label)
	}
	if wantJ, gotJ := journalAfter(refEvents, fromStep), jsonl(events.Events); !bytes.Equal(wantJ, gotJ) {
		t.Fatalf("%s: replayed journal is not the recorded suffix (%d vs %d bytes)",
			label, len(gotJ), len(wantJ))
	}
}

// TestRecordedRunUnperturbed: wrapping a run in a Recorder does not change
// the run — the recorded result, trace and journal are bit-identical to
// the unwrapped run's.
func TestRecordedRunUnperturbed(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	opts := hostileOpts(t, 1)
	opts.RecordTrace = true
	var plainEvents obs.Collect
	opts.Obs = &obs.Obs{Sink: &plainEvents}
	plain, err := engine.Run(m, p, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, ref, refEvents := recordHostile(t, nil)
	if !reflect.DeepEqual(plain, ref) {
		t.Fatalf("recording perturbed the run\nplain: %+v\nrec:   %+v", plain, ref)
	}
	if !bytes.Equal(jsonl(plainEvents.Events), jsonl(refEvents)) {
		t.Fatal("recording perturbed the journal")
	}
}

// TestReplayByteExactHostile is the tentpole property: the recorded
// hostile run replays byte-exactly from step 0 and from every snapshot,
// and a middle snapshot replays identically across GOMAXPROCS {1,4} ×
// workers {1,4}.
func TestReplayByteExactHostile(t *testing.T) {
	rec, ref, refEvents := recordHostile(t, nil)
	if rec.FinalStep != ref.Rounds {
		t.Fatalf("FinalStep %d, run ended at %d", rec.FinalStep, ref.Rounds)
	}

	for _, workers := range []int{1, 4} {
		checkReplay(t, fmt.Sprintf("from-0 workers=%d", workers), rec, ref, refEvents, nil, workers)
	}
	for _, snap := range rec.Snapshots() {
		checkReplay(t, fmt.Sprintf("snapshot@%d", snap.Step), rec, ref, refEvents, snap, 1)
	}

	snaps := rec.Snapshots()
	mid := snaps[len(snaps)/2]
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			checkReplay(t, fmt.Sprintf("snapshot@%d procs=%d workers=%d", mid.Step, procs, workers),
				rec, ref, refEvents, mid, workers)
		}
	}
}

// TestReplaySaveLoadRoundTrip: the streamed WRPLAY03 file, the after-the-
// fact Save output and the in-memory recording all decode to the same
// recording, and the loaded recording replays byte-exactly.
func TestReplaySaveLoadRoundTrip(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	var streamed bytes.Buffer
	rec, ref, refEvents := recordHostile(t, &streamed)

	var saved bytes.Buffer
	if err := rec.Save(&saved); err != nil {
		t.Fatal(err)
	}
	fromStream, err := Load(bytes.NewReader(streamed.Bytes()), m, p)
	if err != nil {
		t.Fatalf("load streamed: %v", err)
	}
	fromSave, err := Load(bytes.NewReader(saved.Bytes()), m, p)
	if err != nil {
		t.Fatalf("load saved: %v", err)
	}
	for label, got := range map[string]*Recording{"streamed": fromStream, "saved": fromSave} {
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("%s recording differs from the in-memory one", label)
		}
	}

	checkReplay(t, "loaded from-0", fromStream, ref, refEvents, nil, 1)
	snaps := fromStream.Snapshots()
	checkReplay(t, "loaded from snapshot", fromStream, ref, refEvents, snaps[len(snaps)/2], 4)
}

// TestLoadKillTolerance: a stream truncated mid-record (the recording
// process was killed) still loads as a usable prefix; only the end record
// makes it replayable.
func TestLoadKillTolerance(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	var streamed bytes.Buffer
	full, _, _ := recordHostile(t, &streamed)
	data := streamed.Bytes()

	for _, cut := range []int{len(data) - 1, len(data) / 2, len(data) / 3} {
		rec, err := Load(bytes.NewReader(data[:cut]), m, p)
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(data), err)
		}
		if rec.FinalStep != 0 {
			t.Fatalf("cut at %d: truncated recording claims FinalStep %d", cut, rec.FinalStep)
		}
		if len(rec.Snapshots()) > len(full.Snapshots()) {
			t.Fatalf("cut at %d: more snapshots than the full recording", cut)
		}
		if _, err := rec.Replay(m, p, engine.Options{}, nil); err == nil {
			t.Fatalf("cut at %d: truncated recording replayed", cut)
		}
	}

	if _, err := Load(bytes.NewReader(data[:4]), m, p); err == nil {
		t.Error("partial magic accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("NOTAPLAY")), m, p); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader(data[:len(replayMagic)]), m, p); err == nil {
		t.Error("recording with no begin record accepted")
	}
}

// TestReplayValidation: malformed recorder/replay configurations and
// tampered recordings fail with errors, not panics or silent divergence.
func TestReplayValidation(t *testing.T) {
	g := graph.Torus(4, 4)
	p := port.Canonical(g)
	m := algorithms.MaxConsensus(g.MaxDegree())

	if _, _, err := New(hostileOpts(t, 1), 0, nil); err == nil {
		t.Error("cadence 0 accepted")
	}
	bad := hostileOpts(t, 1)
	bad.Checkpoint = &engine.CheckpointOptions{Every: 4, Sink: func(*engine.Snapshot) error { return nil }}
	if _, _, err := New(bad, 8, nil); err == nil {
		t.Error("pre-set Checkpoint accepted")
	}

	rec, _, _ := recordHostile(t, nil)
	if _, err := rec.Replay(m, p, engine.Options{MaxRounds: 5}, nil); err == nil {
		t.Error("base MaxRounds accepted")
	}
	if _, err := rec.Replay(m, p, engine.Options{Fault: fault.CrashAt(0, 1, 1, fault.RecoverReset)}, nil); err == nil {
		t.Error("base Fault accepted")
	}
	unfinished := &Recording{}
	if _, err := unfinished.Replay(m, p, engine.Options{}, nil); err == nil {
		t.Error("unfinished recording replayed")
	}

	// A tampered decision stream is detected as divergence, not obeyed.
	tampered := *rec
	tampered.steps = tampered.steps[:len(tampered.steps)/2]
	if _, err := tampered.Replay(m, p, engine.Options{}, nil); err == nil {
		t.Error("truncated step stream replayed cleanly")
	}
}
