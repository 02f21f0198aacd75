// Command weakrun executes a distributed algorithm on a port-numbered graph
// and prints the per-node outputs and telemetry.
//
// Usage:
//
//	weakrun -alg odd-odd -graph cycle:8 -ports random:7
//	weakrun -alg vertex-cover -graph petersen -ports canonical -executor pool
//	weakrun -alg odd-odd -graph torus:6x6 -executor async -schedule adversary:4 -seed 9
//	weakrun -alg odd-odd -graph torus:100x100 -executor pool -workers 8
//	weakrun -alg odd-odd -graph pa:64,3,7 -executor async -faults drop:0.2+crash:2 -fault-seed 5
//	weakrun -formula "<*,*> q1" -graph star:5
//	weakrun -list
//
// With -formula the algorithm is compiled from a modal formula via
// Theorem 2 and the satisfying nodes are printed. With -executor async the
// run is driven by the -schedule/-seed adversary and the summary reports
// per-node activation counts and whether a global fixpoint was detected;
// -faults/-fault-seed additionally inject a seeded fault plan (message
// omission/duplication, Byzantine corruption, link partitions with healing,
// sender-side retransmission, node crash/recovery) and the summary grows a
// fault telemetry line. -list enumerates every valid value of the
// enumerable flags and exits.
//
// Observability (internal/obs): -journal writes the run's deterministic
// JSONL event journal to a path ("-" appends it to the output stream);
// -metrics either writes a Prometheus text snapshot to a path after the
// run or, given a host:port, serves /metrics and /debug/pprof over HTTP
// for the run's duration; -json replaces the text report with one JSON
// object carrying the full telemetry block (with -journal=- the JSONL
// stream keeps stdout and the JSON object moves to stderr).
//
// Flight recorder (internal/replay): -checkpoint records the run's
// decisions, one record per step, and periodic state snapshots (cadence
// -checkpoint-every) to a WRPLAY02 file; -replay reconstructs a recorded
// run byte-exactly without re-drawing any randomness (-replay-from
// resumes the replay from the latest snapshot at or before a step);
// -resume continues a possibly truncated recording live from its last
// snapshot, given the original flags. Replay and resume need the original -alg/-graph/-ports (the
// recording stores decisions, not the topology).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"text/tabwriter"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/compile"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/replay"
	"weakmodels/internal/schedule"
	"weakmodels/internal/spec"
)

// stderr is the side channel for output that must not pollute the primary
// stream (the -json object under -journal=-, the -metrics serving banner).
// A variable so tests can capture it.
var stderr io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "weakrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("weakrun", flag.ContinueOnError)
	algName := fs.String("alg", "", "algorithm name: "+fmt.Sprint(algorithms.RegistryNames()))
	formula := fs.String("formula", "", "modal formula to compile instead of -alg")
	graphSpec := fs.String("graph", "cycle:6", "graph specification")
	portSpec := fs.String("ports", "canonical", "port numbering: canonical|random:SEED|consistent:SEED|symmetric")
	executor := fs.String("executor", "seq", "execution strategy: seq|pool|async")
	workers := fs.Int("workers", 0, "shard count for the pool executor (default GOMAXPROCS)")
	schedSpec := fs.String("schedule", "sync", "async schedule: "+schedule.ValidSpecs)
	seed := fs.Int64("seed", 1, "seed for seeded async schedules")
	faultSpec := fs.String("faults", "", "async fault plan: "+fault.ValidSpecs())
	faultSeed := fs.Int64("fault-seed", 1, "seed for seeded fault plans")
	list := fs.Bool("list", false, "list valid executors, schedules, graphs, ports, faults and algorithms, then exit")
	maxRounds := fs.Int("max-rounds", 0, "round budget (async: step budget; 0 = default)")
	trace := fs.Bool("trace", false, "print the per-round state trace")
	jsonOut := fs.Bool("json", false, "emit the run summary as a single JSON object instead of the text report")
	journalPath := fs.String("journal", "", `write the run's JSONL event journal to this path ("-" = the output stream)`)
	metricsSpec := fs.String("metrics", "", "host:port serves /metrics and /debug/pprof during the run; any other value is a path the Prometheus snapshot is written to after it")
	checkpointPath := fs.String("checkpoint", "", "record the run's decision stream and state snapshots (flight recording) to this path")
	checkpointEvery := fs.Int("checkpoint-every", 64, "snapshot cadence in rounds/steps for -checkpoint")
	replayPath := fs.String("replay", "", "replay a -checkpoint recording byte-exactly instead of running live (pass the original -alg/-graph/-ports)")
	replayFrom := fs.Int("replay-from", 0, "with -replay: start from the latest snapshot at or before this step instead of step 0")
	resumePath := fs.String("resume", "", "resume a possibly truncated -checkpoint recording live from its last snapshot (pass every original flag)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return printList(out)
	}
	if *jsonOut && *trace {
		return fmt.Errorf("-json and -trace are mutually exclusive: the trace renderer is a text report")
	}

	// Validate every flag up front, so a bad spelling fails with the list of
	// valid values instead of a confusing downstream error.
	exec, err := engine.ParseExecutor(*executor)
	if err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *replayPath != "" {
		// The recording owns the schedule, the fault plan and the budget; a
		// flag that would re-introduce live randomness is a conflict, not a
		// silent ignore.
		for _, bad := range []string{"checkpoint", "checkpoint-every", "resume",
			"schedule", "seed", "faults", "fault-seed", "max-rounds"} {
			if set[bad] {
				return fmt.Errorf("-replay drives the run from the recording; -%s conflicts with it", bad)
			}
		}
	}
	if set["replay-from"] && *replayPath == "" {
		return fmt.Errorf("-replay-from is only meaningful with -replay")
	}
	if set["checkpoint-every"] && *checkpointPath == "" {
		return fmt.Errorf("-checkpoint-every is only meaningful with -checkpoint")
	}
	if *resumePath != "" && *checkpointPath != "" {
		return fmt.Errorf("-resume and -checkpoint are mutually exclusive: re-recording a resumed run would start the recording mid-stream")
	}
	if set["workers"] {
		if *workers < 1 {
			return fmt.Errorf("-workers must be ≥ 1, got %d", *workers)
		}
		// -replay picks the executor from the recording, so -workers stands
		// on its own there.
		if exec != engine.ExecutorPool && *replayPath == "" {
			return fmt.Errorf("-workers is only meaningful with -executor=pool (got -executor=%v)", exec)
		}
	}
	sched, err := schedule.Parse(*schedSpec, *seed)
	if err != nil {
		return err
	}
	if exec != engine.ExecutorAsync {
		if set["schedule"] {
			return fmt.Errorf("-schedule is only meaningful with -executor=async (got -executor=%v)", exec)
		}
		if set["seed"] {
			return fmt.Errorf("-seed is only meaningful with -executor=async (got -executor=%v)", exec)
		}
		sched = nil
	} else if set["seed"] && !schedule.UsesSeed(sched) {
		return fmt.Errorf("-seed is only meaningful with a seeded schedule (random|staleness|adversary), got -schedule=%s", *schedSpec)
	}
	plan, err := fault.Parse(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	if plan != nil && exec != engine.ExecutorAsync {
		return fmt.Errorf("-faults is only meaningful with -executor=async (got -executor=%v)", exec)
	}
	if set["fault-seed"] {
		if plan == nil {
			return fmt.Errorf("-fault-seed is only meaningful with -faults")
		}
		if !fault.FlagSeedUsed(*faultSpec) {
			return fmt.Errorf("-fault-seed has no effect on -faults=%s: every component embeds its own ,SEED", *faultSpec)
		}
	}

	g, err := spec.ParseGraph(*graphSpec)
	if err != nil {
		return err
	}
	p, err := spec.ParseNumbering(g, *portSpec)
	if err != nil {
		return err
	}

	var m machine.Machine
	var compiledFrom *formulaReport
	switch {
	case *formula != "" && *algName != "":
		return fmt.Errorf("pass either -alg or -formula, not both")
	case *formula != "":
		f, err := logic.Parse(*formula)
		if err != nil {
			return err
		}
		compiled, variant, err := compile.MachineFromFormula(f, g.MaxDegree())
		if err != nil {
			return err
		}
		compiledFrom = &formulaReport{
			Formula:    f.String(),
			Variant:    fmt.Sprint(variant),
			ModalDepth: logic.ModalDepth(f),
		}
		if !*jsonOut {
			fmt.Fprintf(out, "compiled %q for %v (class %v, md %d)\n",
				f.String(), variant, compiled.Class(), logic.ModalDepth(f))
		}
		m = compiled
	case *algName != "":
		build, ok := algorithms.Registry()[*algName]
		if !ok {
			return fmt.Errorf("unknown algorithm %q; have %v", *algName, algorithms.RegistryNames())
		}
		m = build(g.MaxDegree())
	default:
		return fmt.Errorf("pass -alg or -formula")
	}

	o, reg, metricsPath, closeObs, err := setupObs(*journalPath, *metricsSpec, out)
	if err != nil {
		return err
	}
	defer closeObs()
	if *jsonOut && reg == nil {
		// The -json report always carries the timing block, so a registry
		// rides along even without -metrics.
		reg = obs.NewMetrics()
		if o == nil {
			o = &obs.Obs{}
		}
		o.Metrics = reg
	}

	// schedName/faultsName label the telemetry blocks; in replay mode the
	// live generators are gone (the recording is the generator state).
	schedName, faultsName := "", ""
	if sched != nil {
		schedName = sched.Name()
	}
	if plan != nil {
		faultsName = plan.Name()
	}
	var res *engine.Result
	var banner string // replay/resume/checkpoint note, printed ahead of the text report
	switch {
	case *replayPath != "":
		rec, err := loadRecording(*replayPath, m, p)
		if err != nil {
			return err
		}
		var from *engine.Snapshot
		fromStep := 0
		if set["replay-from"] {
			if from = rec.SnapshotBefore(*replayFrom); from == nil {
				return fmt.Errorf("-replay-from %d: %s has no snapshot at or before that step", *replayFrom, *replayPath)
			}
			fromStep = from.Step
		}
		if !rec.Sync {
			exec = engine.ExecutorAsync
			schedName = "replay"
		}
		if rec.HasPlan {
			faultsName = "replay"
		}
		res, err = rec.Replay(m, p, engine.Options{
			Executor:    exec,
			Workers:     *workers,
			RecordTrace: *trace,
			Obs:         o,
		}, from)
		if err != nil {
			return err
		}
		banner = fmt.Sprintf("replayed %s: steps %d..%d", *replayPath, fromStep, rec.FinalStep)
	case *resumePath != "":
		rec, err := loadRecording(*resumePath, m, p)
		if err != nil {
			return err
		}
		snaps := rec.Snapshots()
		if len(snaps) == 0 {
			return fmt.Errorf("-resume %s: recording holds no snapshot to resume from", *resumePath)
		}
		snap := snaps[len(snaps)-1]
		res, err = engine.Run(m, p, engine.Options{
			Executor:    exec,
			Workers:     *workers,
			Schedule:    sched,
			Fault:       plan,
			MaxRounds:   *maxRounds,
			RecordTrace: *trace,
			Obs:         o,
			Resume:      snap,
		})
		if err != nil {
			return err
		}
		banner = fmt.Sprintf("resumed %s from step %d", *resumePath, snap.Step)
	default:
		eopts := engine.Options{
			Executor:    exec,
			Workers:     *workers,
			Schedule:    sched,
			Fault:       plan,
			MaxRounds:   *maxRounds,
			RecordTrace: *trace,
			Obs:         o,
		}
		var recorder *replay.Recorder
		if *checkpointPath != "" {
			f, err := os.Create(*checkpointPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if eopts, recorder, err = replay.New(eopts, *checkpointEvery, f); err != nil {
				return err
			}
		}
		if res, err = engine.Run(m, p, eopts); err != nil {
			return err
		}
		if recorder != nil {
			if err := recorder.Finish(res); err != nil {
				return fmt.Errorf("seal recording %s: %w", *checkpointPath, err)
			}
			banner = fmt.Sprintf("recorded %s: %d snapshots every %d steps",
				*checkpointPath, len(recorder.Recording().Snapshots()), *checkpointEvery)
		}
	}
	if metricsPath != "" {
		if err := writeMetricsSnapshot(reg, metricsPath); err != nil {
			return err
		}
	}
	if *jsonOut {
		jsonDst := out
		if *journalPath == "-" {
			// The output stream stays pure JSONL; the report moves aside.
			jsonDst = stderr
		}
		return printJSON(jsonDst, m, g, res, exec, schedName, faultsName, *portSpec, p.IsConsistent(), compiledFrom, reg)
	}
	if banner != "" {
		fmt.Fprintln(out, banner)
	}
	fmt.Fprintf(out, "algorithm %s (class %v) on %v, ports=%s, consistent=%v\n",
		m.Name(), m.Class(), g, *portSpec, p.IsConsistent())
	fmt.Fprintf(out, "rounds=%d message-bytes=%d", res.Rounds, res.MessageBytes)
	if res.Shards > 1 {
		fmt.Fprintf(out, " shards=%d cut-links=%d", res.Shards, cutLinksOf(g, res.Shards))
	}
	fmt.Fprintln(out)
	if exec == engine.ExecutorAsync && len(res.Fires) > 0 {
		minF, maxF, total := res.Fires[0], res.Fires[0], int64(0)
		for _, f := range res.Fires {
			if f < minF {
				minF = f
			}
			if f > maxF {
				maxF = f
			}
			total += f
		}
		fmt.Fprintf(out, "schedule=%s steps=%d activations: min=%d max=%d total=%d fixpoint=%v\n",
			schedName, res.Rounds, minF, maxF, total, res.Fixpoint)
	}
	if faultsName != "" {
		alive := 0
		for _, a := range res.Alive {
			if a {
				alive++
			}
		}
		fmt.Fprintf(out, "faults=%s drops=%d dups=%d corruptions=%d crashes=%d recoveries=%d retransmits=%d healed=%d alive=%d/%d\n",
			faultsName, res.Drops, res.Dups, res.Corruptions, res.Crashes, res.Recoveries,
			res.Retransmits, res.Healed, alive, g.N())
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "node\tdegree\toutput")
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(w, "%d\t%d\t%s\n", v, g.Degree(v), res.Output[v])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *trace {
		return engine.RenderTrace(out, m, res)
	}
	return nil
}

// loadRecording opens and decodes a WRPLAY02 flight recording. Load
// tolerates a truncated tail (a killed recorder), so -resume works on
// exactly the recordings that need it.
func loadRecording(path string, m machine.Machine, p *port.Numbering) (*replay.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := replay.Load(f, m, p)
	if err != nil {
		return nil, fmt.Errorf("load recording %s: %w", path, err)
	}
	return rec, nil
}

// cutLinksOf counts the directed links the engine's BFS shard partition
// cuts — the messages a pool run writes into another shard's arena
// region. The engine shards by contiguous slices of the same BFS order, so
// recomputing the partition here reproduces its boundaries exactly.
func cutLinksOf(g *graph.Graph, shards int) int {
	if shards <= 1 {
		return 0
	}
	shardOf := make([]int, g.N())
	for s, nodes := range graph.ShardByBFS(g, shards) {
		for _, v := range nodes {
			shardOf[v] = s
		}
	}
	return graph.CutLinks(g, shardOf)
}

// setupObs resolves the -journal/-metrics flags into the engine's obs
// hook. The returned cleanup closes whatever was opened (journal file,
// metrics listener) and is safe to call on every exit path; metricsPath
// is non-empty when a snapshot must be written after the run.
func setupObs(journalPath, metricsSpec string, out io.Writer) (o *obs.Obs, reg *obs.Metrics, metricsPath string, cleanup func(), err error) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if journalPath != "" {
		w := out
		if journalPath != "-" {
			f, err := os.Create(journalPath)
			if err != nil {
				return nil, nil, "", cleanup, err
			}
			closers = append(closers, func() { f.Close() })
			w = f
		}
		o = &obs.Obs{Sink: obs.NewJournalWriter(w)}
	}
	if metricsSpec != "" {
		reg = obs.NewMetrics()
		if o == nil {
			o = &obs.Obs{}
		}
		o.Metrics = reg
		if _, _, splitErr := net.SplitHostPort(metricsSpec); splitErr != nil {
			metricsPath = metricsSpec
		} else {
			ln, err := net.Listen("tcp", metricsSpec)
			if err != nil {
				return nil, nil, "", cleanup, err
			}
			mux := http.NewServeMux()
			mux.Handle("/metrics", reg.Handler())
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			srv := &http.Server{Handler: mux}
			go srv.Serve(ln)
			closers = append(closers, func() { srv.Close() })
			fmt.Fprintf(stderr, "weakrun: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
		}
	}
	return o, reg, metricsPath, cleanup, nil
}

// writeMetricsSnapshot dumps the registry in the Prometheus text format.
func writeMetricsSnapshot(reg *obs.Metrics, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The -json report: one object, fixed schema (TestRunJSONSchema pins the
// key sets), optional blocks present exactly when their flag/executor is.
type formulaReport struct {
	Formula    string `json:"formula"`
	Variant    string `json:"variant"`
	ModalDepth int    `json:"modal_depth"`
}

type scheduleReport struct {
	Name       string `json:"name"`
	Steps      int    `json:"steps"`
	MinFires   int64  `json:"min_fires"`
	MaxFires   int64  `json:"max_fires"`
	TotalFires int64  `json:"total_fires"`
	Fixpoint   bool   `json:"fixpoint"`
}

type faultsReport struct {
	Plan        string `json:"plan"`
	Drops       int64  `json:"drops"`
	Dups        int64  `json:"dups"`
	Corruptions int64  `json:"corruptions"`
	Crashes     int64  `json:"crashes"`
	Recoveries  int64  `json:"recoveries"`
	Retransmits int64  `json:"retransmits"`
	Healed      int64  `json:"healed"`
	Alive       int    `json:"alive"`
}

// histReport summarises one timing histogram; mean_us is sum/count, 0 when
// the histogram never sampled.
type histReport struct {
	Count  int64   `json:"count"`
	SumUs  float64 `json:"sum_us"`
	MeanUs float64 `json:"mean_us"`
}

// timingReport carries the engine's wall-time histograms: per-round wall
// time and the per-shard compute phase (the load-imbalance signal of a
// pool run).
type timingReport struct {
	RoundUs     histReport `json:"round_us"`
	ShardStepUs histReport `json:"shard_step_us"`
}

type runReport struct {
	Algorithm    string          `json:"algorithm"`
	Class        string          `json:"class"`
	Formula      *formulaReport  `json:"formula,omitempty"`
	Graph        string          `json:"graph"`
	Nodes        int             `json:"nodes"`
	Ports        string          `json:"ports"`
	Consistent   bool            `json:"consistent"`
	Executor     string          `json:"executor"`
	Rounds       int             `json:"rounds"`
	MessageBytes int64           `json:"message_bytes"`
	Shards       int             `json:"shards"`
	CutLinks     int             `json:"cut_links"`
	Schedule     *scheduleReport `json:"schedule,omitempty"`
	Faults       *faultsReport   `json:"faults,omitempty"`
	Timing       *timingReport   `json:"timing,omitempty"`
	Outputs      []string        `json:"outputs"`
}

// summarize reads one histogram out of the registry.
func summarize(reg *obs.Metrics, name string) histReport {
	h := reg.Histogram(name, "", nil)
	r := histReport{Count: h.Count(), SumUs: h.Sum()}
	if r.Count > 0 {
		r.MeanUs = r.SumUs / float64(r.Count)
	}
	return r
}

// printJSON emits the whole telemetry block as a single indented JSON
// object — the machine-readable twin of the text report.
func printJSON(out io.Writer, m machine.Machine, g *graph.Graph, res *engine.Result,
	exec engine.Executor, schedName, faultsName string,
	portSpec string, consistent bool, compiledFrom *formulaReport, reg *obs.Metrics) error {
	outputs := make([]string, g.N())
	for v := range outputs {
		outputs[v] = string(res.Output[v])
	}
	rep := runReport{
		Algorithm:    m.Name(),
		Class:        fmt.Sprint(m.Class()),
		Formula:      compiledFrom,
		Graph:        g.String(),
		Nodes:        g.N(),
		Ports:        portSpec,
		Consistent:   consistent,
		Executor:     fmt.Sprint(exec),
		Rounds:       res.Rounds,
		MessageBytes: res.MessageBytes,
		Shards:       res.Shards,
		CutLinks:     cutLinksOf(g, res.Shards),
		Outputs:      outputs,
	}
	if exec == engine.ExecutorAsync && len(res.Fires) > 0 {
		sr := &scheduleReport{Name: schedName, Steps: res.Rounds, Fixpoint: res.Fixpoint}
		sr.MinFires, sr.MaxFires = res.Fires[0], res.Fires[0]
		for _, f := range res.Fires {
			if f < sr.MinFires {
				sr.MinFires = f
			}
			if f > sr.MaxFires {
				sr.MaxFires = f
			}
			sr.TotalFires += f
		}
		rep.Schedule = sr
	}
	if faultsName != "" {
		fr := &faultsReport{
			Plan:        faultsName,
			Drops:       res.Drops,
			Dups:        res.Dups,
			Corruptions: res.Corruptions,
			Crashes:     res.Crashes,
			Recoveries:  res.Recoveries,
			Retransmits: res.Retransmits,
			Healed:      res.Healed,
		}
		for _, a := range res.Alive {
			if a {
				fr.Alive++
			}
		}
		rep.Faults = fr
	}
	if reg != nil {
		rep.Timing = &timingReport{
			RoundUs:     summarize(reg, engine.MetricRoundUs),
			ShardStepUs: summarize(reg, engine.MetricShardStepUs),
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

// printList enumerates every valid value of the enumerable flags, so a
// user never has to provoke an error to discover a spelling.
func printList(out io.Writer) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "flag\tvalid values")
	fmt.Fprintln(w, "-executor\tseq | pool | async")
	fmt.Fprintln(w, "-workers\tshard count ≥ 1, with -executor=pool (default GOMAXPROCS); sharded runs report shards= and cut-links= (graph.CutLinks) on the telemetry line")
	fmt.Fprintln(w, "-schedule\t"+schedule.ValidSpecs)
	fmt.Fprintln(w, "-graph\t"+strings.Join(spec.GraphSpecs(), "  "))
	fmt.Fprintln(w, "-ports\t"+strings.Join(spec.NumberingSpecs(), " | "))
	fmt.Fprintln(w, "-faults\t"+fault.ValidSpecs())
	fmt.Fprintln(w, "-alg\t"+strings.Join(algorithms.RegistryNames(), "  "))
	fmt.Fprintln(w, "-journal\tfile path, or \"-\" for the output stream; with -json the JSONL journal keeps the output stream and the JSON object moves to stderr")
	fmt.Fprintln(w, "-checkpoint\tfile path for the run's flight recording (decision stream + a snapshot every -checkpoint-every rounds/steps)")
	fmt.Fprintln(w, "-replay\tpath of a -checkpoint recording to reconstruct byte-exactly (with the original -alg/-graph/-ports); -replay-from STEP starts from the latest snapshot at or before STEP")
	fmt.Fprintln(w, "-resume\tpath of a possibly truncated -checkpoint recording to continue live from its last snapshot (with every original flag)")
	return w.Flush()
}
