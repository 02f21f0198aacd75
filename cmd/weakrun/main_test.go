package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestRunAlgorithm(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "odd-odd", "-graph", "star:3", "-ports", "random:5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "odd-odd") || !strings.Contains(out, "rounds=1") {
		t.Errorf("unexpected output:\n%s", out)
	}
	// Star centre has 3 odd-degree neighbours → output 1; leaves see the
	// centre (odd degree 3) → output 1. The tabwriter expands tabs, so
	// compare fields.
	found := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "0" && fields[1] == "3" && fields[2] == "1" {
			found = true
		}
	}
	if !found {
		t.Errorf("centre row missing:\n%s", out)
	}
}

func TestRunFormula(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-formula", "q1 & <*,*> q3", "-graph", "star:3"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "compiled") {
		t.Errorf("missing compile banner:\n%s", sb.String())
	}
}

func TestRunPoolExecutor(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-alg", "even-degree", "-graph", "cycle:4", "-executor", "pool", "-workers", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
}

// TestRunConcurrentFlagRemoved: the deprecated -concurrent alias is gone;
// -executor=pool is the spelling.
func TestRunConcurrentFlagRemoved(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-alg", "even-degree", "-graph", "cycle:4", "-concurrent"}, &sb); err == nil {
		t.Fatal("run accepted the removed -concurrent flag")
	}
}

// TestRunShardTelemetry: a sharded run reports its shard count and the
// directed links the BFS partition cuts on the telemetry line; inline runs
// stay silent about shards.
func TestRunShardTelemetry(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-alg", "even-degree", "-graph", "cycle:8",
		"-executor", "pool", "-workers", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	// C8 split into two contiguous BFS halves cuts two edges → 4 directed
	// links.
	if !strings.Contains(sb.String(), "shards=2 cut-links=4") {
		t.Errorf("missing shard telemetry:\n%s", sb.String())
	}
	var seq strings.Builder
	if err := run([]string{"-alg", "even-degree", "-graph", "cycle:8"}, &seq); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(seq.String(), "shards=") {
		t.Errorf("inline run printed shard telemetry:\n%s", seq.String())
	}
}

func TestRunBadExecutor(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "even-degree", "-executor", "warp"}, &sb)
	if err == nil {
		t.Fatal("run accepted an unknown executor")
	}
	if !strings.Contains(err.Error(), "seq|pool|async") {
		t.Errorf("unknown-executor error should list valid values, got %v", err)
	}
}

func TestRunAsyncExecutor(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "odd-odd", "-graph", "star:3", "-ports", "random:5",
		"-executor", "async", "-schedule", "roundrobin"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "schedule=roundrobin") || !strings.Contains(out, "fixpoint=false") {
		t.Errorf("missing async summary:\n%s", out)
	}
	// Same outputs as the synchronous run of TestRunAlgorithm: the star
	// centre row reads 0 / 3 / 1.
	found := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "0" && fields[1] == "3" && fields[2] == "1" {
			found = true
		}
	}
	if !found {
		t.Errorf("centre row missing:\n%s", out)
	}
}

// TestRunAsyncWorkers: the async executor runs on one shard, so -workers
// with -executor=async is rejected like it is with seq, never silently
// ignored.
func TestRunAsyncWorkers(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "odd-odd", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin", "-workers", "3"}, &sb)
	if err == nil {
		t.Fatal("run accepted -workers with -executor=async")
	}
	if !strings.Contains(err.Error(), "only meaningful with -executor=pool") {
		t.Errorf("-workers with async: unhelpful error %v", err)
	}
}

func TestRunAsyncSeededSchedules(t *testing.T) {
	for _, spec := range []string{"random:0.5", "staleness:2", "adversary:3"} {
		var sb strings.Builder
		err := run([]string{"-alg", "even-degree", "-graph", "cycle:5",
			"-executor", "async", "-schedule", spec, "-seed", "9"}, &sb)
		if err != nil {
			t.Errorf("schedule %s: %v", spec, err)
		}
	}
}

// TestRunFlagCrossValidation: flags that do not apply to the selected
// executor or schedule are rejected up front, never silently ignored.
func TestRunFlagCrossValidation(t *testing.T) {
	cases := [][]string{
		{"-alg", "even-degree", "-workers", "4"},                                       // workers without pool
		{"-alg", "even-degree", "-seed", "7"},                                          // seed without async
		{"-alg", "even-degree", "-executor", "async", "-seed", "7"},                    // seed with unseeded sync default
		{"-alg", "even-degree", "-executor", "async", "-schedule", "rr", "-seed", "7"}, // seed with roundrobin
		{"-alg", "even-degree", "-schedule", "roundrobin"},                             // schedule without async
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want cross-validation error", args)
		}
	}
}

func TestRunBadSchedule(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "even-degree", "-executor", "async", "-schedule", "chaos"}, &sb)
	if err == nil {
		t.Fatal("run accepted an unknown schedule")
	}
	if !strings.Contains(err.Error(), "sync") || !strings.Contains(err.Error(), "adversary") {
		t.Errorf("unknown-schedule error should list valid values, got %v", err)
	}
}

func TestRunScheduleNeedsAsync(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-alg", "even-degree", "-schedule", "roundrobin"}, &sb); err == nil {
		t.Fatal("run accepted -schedule without -executor=async")
	}
}

func TestRunBadWorkers(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		var sb strings.Builder
		err := run([]string{"-alg", "even-degree", "-graph", "cycle:4", "-executor", "pool", "-workers", w}, &sb)
		if err == nil {
			t.Fatalf("run accepted -workers=%s", w)
		}
		if !strings.Contains(err.Error(), "≥ 1") {
			t.Errorf("-workers=%s error unhelpful: %v", w, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // neither -alg nor -formula
		{"-alg", "nope"},                      // unknown algorithm
		{"-alg", "odd-odd", "-graph", "x"},    // bad graph
		{"-alg", "odd-odd", "-ports", "y"},    // bad ports
		{"-formula", "(("},                    // bad formula
		{"-alg", "odd-odd", "-formula", "q1"}, // both
		{"-formula", "<1,1> q1 & <*,1> q1"},   // mixed labels
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"-executor", "seq | pool | async",
		"-workers", "with -executor=pool (default GOMAXPROCS)",
		"-schedule", "adversary:F",
		"-graph", "pa:N,M,SEED",
		"-ports", "consistent:SEED",
		"-faults", "crashstop:K", "byzantine:P", "partition:K", "retransmit:R",
		"-alg", "odd-odd",
		"-journal", "the JSON object moves to stderr",
		"-checkpoint", "-replay", "-replay-from STEP", "-resume",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFaults(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "even-degree", "-graph", "cycle:6",
		"-executor", "async", "-faults", "drop:0.3+dup:0.2", "-fault-seed", "9"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "faults=drop:0.3+dup:0.2") || !strings.Contains(out, "alive=6/6") {
		t.Errorf("missing fault telemetry line:\n%s", out)
	}
	// The telemetry line carries every counter, zero or not, so a reader
	// can grep one line for the whole fault story.
	for _, want := range []string{"corruptions=0", "retransmits=0", "healed=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("fault telemetry missing %q:\n%s", want, out)
		}
	}
}

// TestRunHostileFaults: the hostile-link families show up on the telemetry
// line with live counters — corruption rewrites, healed partition links,
// and retransmissions for recovering crash victims.
func TestRunHostileFaults(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin",
		"-faults", "byzantine:0.3,41,80+partition:3,42,80+crash:1,43,80+retransmit:2,44,80"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, banned := range []string{"corruptions=0 ", "healed=0 ", "retransmits=0 "} {
		if strings.Contains(out, banned) {
			t.Errorf("hostile run left %q at zero:\n%s", strings.TrimSpace(banned), out)
		}
	}
	if !strings.Contains(out, "alive=16/16") {
		t.Errorf("recovering plan should leave every node alive:\n%s", out)
	}
}

func TestRunBadFaults(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "even-degree", "-executor", "async", "-faults", "chaos"}, &sb)
	if err == nil {
		t.Fatal("run accepted an unknown fault spec")
	}
	if !strings.Contains(err.Error(), "drop:P") || !strings.Contains(err.Error(), "adversary:B") {
		t.Errorf("unknown-fault error should list valid specs, got %v", err)
	}
}

// TestRunFaultFlagCrossValidation: fault flags that do not apply are
// rejected up front, never silently ignored.
func TestRunFaultFlagCrossValidation(t *testing.T) {
	cases := [][]string{
		{"-alg", "even-degree", "-faults", "drop:0.5"},                      // faults without async
		{"-alg", "even-degree", "-executor", "pool", "-faults", "drop:0.5"}, // faults with pool
		{"-alg", "even-degree", "-executor", "async", "-fault-seed", "7"},   // fault-seed without faults
		// fault-seed with every component's seed embedded: the flag would
		// have no effect, which must be an error, not a silent ignore.
		{"-alg", "even-degree", "-executor", "async", "-faults", "drop:0.5,3", "-fault-seed", "7"},
		{"-alg", "even-degree", "-executor", "async", "-faults", "drop:0.5,3+dup:0.2,4", "-fault-seed", "7"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want cross-validation error", args)
		}
	}
}

// TestRunJSONSchema pins the -json object's key sets: a consumer parsing
// today's schema must keep parsing tomorrow's, so adding a key is fine
// only in the optional blocks' presence rules, and removing or renaming
// one must fail here first.
func TestRunJSONSchema(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin",
		"-faults", "partition:3,42,80", "-json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("-json did not emit valid JSON: %v\n%s", err, sb.String())
	}
	if dec.More() {
		t.Fatalf("-json emitted more than one JSON value:\n%s", sb.String())
	}
	keysOf := func(m map[string]any) []string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	want := []string{"algorithm", "class", "consistent", "cut_links", "executor",
		"faults", "graph", "message_bytes", "nodes", "outputs", "ports",
		"rounds", "schedule", "shards", "timing"}
	if got := keysOf(obj); !reflect.DeepEqual(got, want) {
		t.Errorf("top-level keys = %v, want %v", got, want)
	}
	wantSched := []string{"fixpoint", "max_fires", "min_fires", "name", "steps", "total_fires"}
	if got := keysOf(obj["schedule"].(map[string]any)); !reflect.DeepEqual(got, wantSched) {
		t.Errorf("schedule keys = %v, want %v", got, wantSched)
	}
	wantFaults := []string{"alive", "corruptions", "crashes", "drops", "dups",
		"healed", "plan", "recoveries", "retransmits"}
	if got := keysOf(obj["faults"].(map[string]any)); !reflect.DeepEqual(got, wantFaults) {
		t.Errorf("faults keys = %v, want %v", got, wantFaults)
	}
	if n := len(obj["outputs"].([]any)); n != 16 {
		t.Errorf("outputs has %d entries, want 16", n)
	}
	if obj["shards"].(float64) != 1 || obj["cut_links"].(float64) != 0 {
		t.Errorf("shard telemetry wrong: shards=%v cut_links=%v", obj["shards"], obj["cut_links"])
	}
	timing := obj["timing"].(map[string]any)
	wantTiming := []string{"round_us", "shard_step_us"}
	if got := keysOf(timing); !reflect.DeepEqual(got, wantTiming) {
		t.Errorf("timing keys = %v, want %v", got, wantTiming)
	}
	for _, k := range wantTiming {
		h := timing[k].(map[string]any)
		if got := keysOf(h); !reflect.DeepEqual(got, []string{"count", "mean_us", "sum_us"}) {
			t.Errorf("timing.%s keys = %v", k, got)
		}
	}
	// One shard, one firing-pass sample per step.
	steps := timing["shard_step_us"].(map[string]any)
	if steps["count"].(float64) != obj["rounds"].(float64) {
		t.Errorf("shard_step_us count = %v, want rounds = %v", steps["count"], obj["rounds"].(float64))
	}
}

// TestRunJSONSeqOmitsAsyncBlocks: without async or faults the optional
// blocks are absent, not null, and the formula block appears only with
// -formula (whose text banner -json suppresses).
func TestRunJSONSeqOmitsAsyncBlocks(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-alg", "odd-odd", "-graph", "star:3", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &obj); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"schedule", "faults", "formula"} {
		if _, ok := obj[absent]; ok {
			t.Errorf("seq -json object has a %q block", absent)
		}
	}

	var fb strings.Builder
	if err := run([]string{"-formula", "q1 & <*,*> q3", "-graph", "star:3", "-json"}, &fb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fb.String(), "compiled ") {
		t.Errorf("-json did not suppress the compile banner:\n%s", fb.String())
	}
	var fobj map[string]any
	if err := json.Unmarshal([]byte(fb.String()), &fobj); err != nil {
		t.Fatal(err)
	}
	f, ok := fobj["formula"].(map[string]any)
	if !ok {
		t.Fatalf("-formula -json object missing the formula block:\n%s", fb.String())
	}
	for _, k := range []string{"formula", "variant", "modal_depth"} {
		if _, ok := f[k]; !ok {
			t.Errorf("formula block missing %q", k)
		}
	}
}

// TestRunJSONTraceExcluded: -trace renders a text report, so combining it
// with -json is a flag error.
func TestRunJSONTraceExcluded(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-alg", "odd-odd", "-graph", "star:3", "-json", "-trace"}, &sb); err == nil {
		t.Error("run accepted -json with -trace, want flag error")
	}
}

// TestRunJSONJournalDash: -json with -journal=- keeps the output stream
// pure JSONL and moves the JSON report to stderr — neither is dropped.
func TestRunJSONJournalDash(t *testing.T) {
	var errBuf strings.Builder
	orig := stderr
	stderr = &errBuf
	defer func() { stderr = orig }()

	var sb strings.Builder
	err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin",
		"-faults", "partition:3,42,80", "-json", "-journal", "-"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Every stdout line is a JSONL record.
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("journal stream has %d records:\n%.200s", len(lines), sb.String())
	}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("output stream is not pure JSONL, line %q: %v", ln, err)
		}
		if _, ok := rec["kind"]; !ok {
			t.Fatalf("non-journal record on the output stream: %q", ln)
		}
	}
	// The JSON report landed on stderr, intact.
	var obj map[string]any
	if err := json.Unmarshal([]byte(errBuf.String()), &obj); err != nil {
		t.Fatalf("stderr does not hold the JSON report: %v\n%s", err, errBuf.String())
	}
	if _, ok := obj["faults"]; !ok {
		t.Errorf("stderr report missing the faults block:\n%s", errBuf.String())
	}
}

// TestRunJournalFlag: -journal writes one JSON object per line with the
// pinned record schema, to a file or ("-") the output stream.
func TestRunJournalFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var sb strings.Builder
	err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin",
		"-faults", "partition:3,42,80", "-journal", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("journal has %d records, want a partition-and-heal run's worth", len(lines))
	}
	kinds := map[string]bool{}
	for _, ln := range lines {
		var rec struct {
			Step *int64  `json:"step"`
			Kind *string `json:"kind"`
			Node *int64  `json:"node"`
			Link *int64  `json:"link"`
			Arg  *int64  `json:"arg"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", ln, err)
		}
		if rec.Step == nil || rec.Kind == nil || rec.Node == nil || rec.Link == nil || rec.Arg == nil {
			t.Fatalf("journal line %q is missing a schema key", ln)
		}
		kinds[*rec.Kind] = true
	}
	for _, want := range []string{"fire", "drop", "heal", "probe"} {
		if !kinds[want] {
			t.Errorf("journal never recorded a %q event; kinds seen: %v", want, kinds)
		}
	}

	// "-" sends the same records to the output stream, ahead of the report.
	var dash strings.Builder
	if err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin",
		"-faults", "partition:3,42,80", "-journal", "-"}, &dash); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dash.String(), lines[0]) {
		t.Errorf("-journal=- output does not start with the journal:\n%.200s", dash.String())
	}
}

// hostileArgs is one hostile async cell shared by the flight-recorder
// tests: every fault family live, deterministic under its embedded seeds.
func hostileArgs(extra ...string) []string {
	return append([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "random:0.3",
		"-faults", "byzantine:0.2,45,200+partition:3,46,200+crash:1,47,200+retransmit:1,48,200"},
		extra...)
}

// TestRunCheckpointReplay: -checkpoint records a hostile run; -replay
// reconstructs it byte-exactly (same report, same journal) with none of
// the original schedule/fault flags; -replay-from starts mid-run.
func TestRunCheckpointReplay(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "run.wrplay")
	liveJournal := filepath.Join(dir, "live.jsonl")

	var live strings.Builder
	if err := run(hostileArgs("-checkpoint", recPath, "-checkpoint-every", "8",
		"-journal", liveJournal), &live); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(live.String(), "recorded "+recPath) {
		t.Errorf("missing recording banner:\n%s", live.String())
	}

	replayJournal := filepath.Join(dir, "replay.jsonl")
	var rep strings.Builder
	if err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-replay", recPath, "-journal", replayJournal}, &rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "replayed "+recPath+": steps 0..") {
		t.Errorf("missing replay banner:\n%s", rep.String())
	}
	// The reports agree on everything but the banner and shard telemetry.
	strip := func(s string) string {
		var keep []string
		for _, ln := range strings.Split(s, "\n") {
			if strings.HasPrefix(ln, "recorded ") || strings.HasPrefix(ln, "replayed ") {
				continue
			}
			if strings.HasPrefix(ln, "rounds=") {
				if idx := strings.Index(ln, " shards="); idx >= 0 {
					ln = ln[:idx]
				}
			}
			if strings.HasPrefix(ln, "schedule=") || strings.HasPrefix(ln, "faults=") {
				// The generator names read "replay" on the replay side.
				ln = ""
			}
			keep = append(keep, ln)
		}
		return strings.Join(keep, "\n")
	}
	if strip(live.String()) != strip(rep.String()) {
		t.Errorf("replay report diverged\nlive:\n%s\nreplay:\n%s", live.String(), rep.String())
	}
	liveJ, err := os.ReadFile(liveJournal)
	if err != nil {
		t.Fatal(err)
	}
	repJ, err := os.ReadFile(replayJournal)
	if err != nil {
		t.Fatal(err)
	}
	if string(liveJ) != string(repJ) {
		t.Error("replay journal is not byte-identical to the live journal")
	}

	// -replay-from replays a suffix: its journal is a suffix of the live one.
	fromJournal := filepath.Join(dir, "from.jsonl")
	var from strings.Builder
	if err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-replay", recPath, "-replay-from", "16", "-journal", fromJournal}, &from); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(from.String(), ": steps 16..") {
		t.Errorf("-replay-from 16 did not start at snapshot step 16:\n%s", from.String())
	}
	fromJ, err := os.ReadFile(fromJournal)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromJ) == 0 || !strings.HasSuffix(string(liveJ), string(fromJ)) {
		t.Error("mid-run replay journal is not a suffix of the live journal")
	}
}

// TestRunReplayWorkers: -workers on a replay follows the executor the
// replay runs on, as on a live run. An async recording sets the async
// executor, which rejects it; a synchronous recording replays on the
// -executor given, so pool accepts it and seq rejects it.
func TestRunReplayWorkers(t *testing.T) {
	dir := t.TempDir()
	asyncRec := filepath.Join(dir, "async.wrplay")
	var sb strings.Builder
	if err := run(hostileArgs("-checkpoint", asyncRec), &sb); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-replay", asyncRec, "-workers", "3"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "only meaningful with -executor=pool (got -executor=async)") {
		t.Errorf("-workers on an async replay: got %v, want the pool-only error", err)
	}

	syncRec := filepath.Join(dir, "sync.wrplay")
	syncArgs := []string{"-alg", "odd-odd", "-graph", "torus:4x4"}
	var live strings.Builder
	if err := run(append(syncArgs, "-checkpoint", syncRec), &live); err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	if err := run(append(syncArgs, "-replay", syncRec, "-executor", "pool", "-workers", "2"), &rep); err != nil {
		t.Fatalf("-executor pool -workers 2 on a sync replay: %v", err)
	}
	if !strings.Contains(rep.String(), "replayed "+syncRec) {
		t.Errorf("missing replay banner:\n%s", rep.String())
	}
	err = run(append(syncArgs, "-replay", syncRec, "-workers", "2"), &sb)
	if err == nil || !strings.Contains(err.Error(), "only meaningful with -executor=pool (got -executor=seq)") {
		t.Errorf("-workers on a seq replay: got %v, want the pool-only error", err)
	}
}

// TestRunResume: a truncated recording resumes live from its last snapshot
// with the original flags and reaches the recorded run's verdict.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "run.wrplay")
	var live strings.Builder
	if err := run(hostileArgs("-checkpoint", recPath, "-checkpoint-every", "8"), &live); err != nil {
		t.Fatal(err)
	}
	// Cut the tail off: a recorder killed mid-run leaves exactly this.
	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.wrplay")
	if err := os.WriteFile(cut, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := run(hostileArgs("-resume", cut), &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resumed "+cut+" from step ") {
		t.Errorf("missing resume banner:\n%s", resumed.String())
	}
	// The resumed run finishes at the same step with the same outputs.
	tail := func(s string) string {
		i := strings.Index(s, "rounds=")
		if i < 0 {
			return s
		}
		return s[i:]
	}
	want := tail(live.String())
	got := tail(resumed.String())
	if wantRounds := strings.SplitN(want, "\n", 2)[0]; !strings.HasPrefix(got, wantRounds) {
		t.Errorf("resumed run's telemetry line diverged\nlive:    %s\nresumed: %s",
			strings.SplitN(want, "\n", 2)[0], strings.SplitN(got, "\n", 2)[0])
	}
	node0 := func(s string) string {
		for _, ln := range strings.Split(s, "\n") {
			// The output column may be empty for a fixpoint-stopped run, so
			// match on the node and degree columns alone.
			if f := strings.Fields(ln); len(f) >= 2 && f[0] == "0" && f[1] == "4" {
				return ln
			}
		}
		return ""
	}
	if a, b := node0(live.String()), node0(resumed.String()); a == "" || a != b {
		t.Errorf("resumed outputs diverged: live %q, resumed %q", a, b)
	}
}

// TestRunRecorderFlagCrossValidation: the flight-recorder flags reject
// conflicting combinations up front.
func TestRunRecorderFlagCrossValidation(t *testing.T) {
	cases := [][]string{
		{"-alg", "even-degree", "-replay", "x", "-checkpoint", "y"},
		{"-alg", "even-degree", "-replay", "x", "-resume", "y"},
		{"-alg", "even-degree", "-replay", "x", "-schedule", "roundrobin"},
		{"-alg", "even-degree", "-replay", "x", "-faults", "drop:0.5"},
		{"-alg", "even-degree", "-replay", "x", "-max-rounds", "10"},
		{"-alg", "even-degree", "-replay-from", "8"},
		{"-alg", "even-degree", "-checkpoint-every", "8"},
		{"-alg", "even-degree", "-resume", "x", "-checkpoint", "y"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want cross-validation error", args)
		}
	}
}

// TestRunMetricsFlag: a non-address -metrics value is a snapshot path
// holding the Prometheus text rendition of the run's counters.
func TestRunMetricsFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	var sb strings.Builder
	err := run([]string{"-alg", "max-consensus", "-graph", "torus:4x4",
		"-executor", "async", "-schedule", "roundrobin",
		"-faults", "partition:3,42,80", "-metrics", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := string(data)
	for _, want := range []string{
		"weak_engine_runs_total 1",
		"weak_engine_healed_total 16",
		"weak_engine_nodes 16",
		"# TYPE weak_engine_round_us histogram",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, snap)
		}
	}
}
