package replay

// golden_test.go pins the engine's observable bytes on two fixed tables:
// seeded hostile cells of the async executor, and synchronous cells of
// ExecutorSeq and ExecutorPool. Each cell records one run and compares the
// SHA-256 of three artefacts against values captured once and committed:
// the JSONL journal, the saved WRPLAY03 recording and a rendering of the
// Result without its Shards telemetry (the error, for a sync cell that
// exhausts its round budget). Unlike the equivalence suites, which
// compare two executions of the same build, these tables compare against
// an earlier build, so a refactor of the queues, the fate pass, the round
// loop or the codec that shifts one draw, one event or one byte fails
// here.
//
// The hashes must only change together with a deliberate change of run
// semantics, journal or recording format; the commit that changes them
// says which.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/obs"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// goldenCells covers workers 1 and 4; the sync, random, staleness and
// adversary schedules; drop, dup and byzantine fates; crash with reset,
// pause with resume, retransmission and a healing partition.
var goldenCells = []struct {
	graph   string // "torus" (Torus(6,6)) or "pa" (PA(200,2))
	machine string // "max" (MaxConsensus, stabilises) or "rounds" (roundsMax k=40, halts)
	sched   string
	faults  string
	seed    int64
	workers int
	journal string
	record  string
	result  string
}{
	{"torus", "max", "sync", "drop:0.1+dup:0.05", 11, 1,
		"a54b88ac9ab52f0e7be39beba92300a94c7bc40eedde5253d133bb21e8642176",
		"bf2c647d30574c64f71cb5c1c185491ed07219e834fa6d5a640f598ebff11f24",
		"d8aa4a55a49d4aefa586ef0b66895303077f74cf46e11b5517b3a290b154c5c5"},
	{"torus", "max", "sync", "drop:0.1+dup:0.05", 11, 4,
		"a54b88ac9ab52f0e7be39beba92300a94c7bc40eedde5253d133bb21e8642176",
		"bf2c647d30574c64f71cb5c1c185491ed07219e834fa6d5a640f598ebff11f24",
		"d8aa4a55a49d4aefa586ef0b66895303077f74cf46e11b5517b3a290b154c5c5"},
	{"torus", "max", "random:0.5", "dup:0.05+crash:2", 12, 1,
		"898ab64346ff7f82f95c149e4ce6321c779a5e17e3a66050da9c77df56de0d20",
		"8d8f3b4df2bfa863f2a2803e09b41b8cd3690a3bff242cdea63504f36e2c9032",
		"789faf8f300a11f98d28b7a9727adb32f0f48a69d0590daa460dbc8c62057098"},
	{"torus", "max", "random:0.5", "dup:0.05+crash:2", 12, 4,
		"898ab64346ff7f82f95c149e4ce6321c779a5e17e3a66050da9c77df56de0d20",
		"8d8f3b4df2bfa863f2a2803e09b41b8cd3690a3bff242cdea63504f36e2c9032",
		"789faf8f300a11f98d28b7a9727adb32f0f48a69d0590daa460dbc8c62057098"},
	{"pa", "max", "staleness:2", "byzantine:0.2+pause:2+retransmit:2", 13, 1,
		"13950747c164f634a348ddf8131acab776e8f2a9f16d9b66208f2f10a8d32d5e",
		"a25f7e58d6cfa6a5659e36c07adbd92d4d935f6633c4c3b32067d09f2e4b72a2",
		"1e3c60c7806785859a14ff8fbb45fb240dfbae186378a0623de855a119f99b11"},
	{"pa", "max", "staleness:2", "byzantine:0.2+pause:2+retransmit:2", 13, 4,
		"13950747c164f634a348ddf8131acab776e8f2a9f16d9b66208f2f10a8d32d5e",
		"a25f7e58d6cfa6a5659e36c07adbd92d4d935f6633c4c3b32067d09f2e4b72a2",
		"1e3c60c7806785859a14ff8fbb45fb240dfbae186378a0623de855a119f99b11"},
	{"pa", "max", "adversary:3", "partition:8+drop:0.05", 14, 1,
		"865d2089f82c396a5f3b4f08436adb564ff7e52c1fa81935ecd480e20c1524d9",
		"c8aa9ca8b779492f97dd57504493bc2d5fc6630fb3d2cff125693875a5c2d9b3",
		"0862006fad50286d4bb291298661fea6c07f821e3806d2fcc53b71f21d3b8a1f"},
	{"pa", "max", "adversary:3", "partition:8+drop:0.05", 14, 4,
		"865d2089f82c396a5f3b4f08436adb564ff7e52c1fa81935ecd480e20c1524d9",
		"c8aa9ca8b779492f97dd57504493bc2d5fc6630fb3d2cff125693875a5c2d9b3",
		"0862006fad50286d4bb291298661fea6c07f821e3806d2fcc53b71f21d3b8a1f"},
	{"torus", "rounds", "random:0.5", "byzantine:0.3+crash:2,5,40+retransmit:2,6,40", 15, 1,
		"a470bd5281d423e5d88e83acbc7446197472eb1c87195bdb8f4abff577988652",
		"7d782685ef56bd9d648d8b41f649839eefad889a30b7a4258f77be5d5f000f33",
		"2d9d6fe89dbd1cc9ac3f6ca4e5e955af1325c759c479fa67f6924d274d5b56d2"},
	{"torus", "rounds", "staleness:2", "dup:0.1+pause:2,7,40+partition:6,8,40", 16, 4,
		"359048084e7e8ff741aa9c2cbe1c43101b253ddbda6c10f2e54d7637301263e5",
		"2b63939956193a477107f3ee04c271309ce874d31cda87614201008a76d01163",
		"8f3c35a7241c25c5129a7a12d63077826a8fdd7abdf3a83d446fd7a70fc0f94e"},
	{"pa", "max", "random:0.5", "byzantine:0.2+partition:8+crash:2+retransmit:2", 17, 1,
		"3bfc5203541ca7a525d8e97dfa1f6550049815a35f17f043273ddc3ee4063000",
		"5dc57bdc8e1243bb9648d2602530d97887b0c7369e5e84ff93d0c1af37756f75",
		"beaf9633bc671ea916d3dec4c09f6e35d765fef4fd7d5960a50b9daa1352761d"},
	{"pa", "max", "random:0.5", "byzantine:0.2+partition:8+crash:2+retransmit:2", 17, 4,
		"3bfc5203541ca7a525d8e97dfa1f6550049815a35f17f043273ddc3ee4063000",
		"5dc57bdc8e1243bb9648d2602530d97887b0c7369e5e84ff93d0c1af37756f75",
		"beaf9633bc671ea916d3dec4c09f6e35d765fef4fd7d5960a50b9daa1352761d"},
}

// roundsMax is MaxConsensus that halts after k rounds, outputting the
// largest value it has seen. Its state packs (round, value) into one int,
// the value in [0, Δ]: gob numbers struct types per process in order of
// first use, so a struct state would make a recording's bytes depend on
// which tests ran before it.
func roundsMax(delta, k int) machine.Machine {
	base := delta + 1
	return &machine.Func{
		MachineName:  "rounds-max",
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return deg },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			return strconv.Itoa(s.(int) % base), s.(int)/base >= k
		},
		SendFunc: func(s machine.State, _ int) machine.Message {
			return strconv.Itoa(s.(int) % base)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			best := s.(int) % base
			for _, m := range inbox {
				if v, err := strconv.Atoi(m); err == nil && v > best && v <= delta {
					best = v
				}
			}
			return (s.(int)/base+1)*base + best
		},
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// hostileCell builds one hostile run from its table entry: the graph
// ("torus": Torus(6,6), "pa": PA(200,2) from the seed), its port.Random
// numbering from the seed, the machine ("max" or "rounds") and the async
// options with the schedule and plan parsed from their specs and the seed.
func hostileCell(t *testing.T, graphKind, machineKind, sched, faults string, seed int64) (machine.Machine, *port.Numbering, engine.Options) {
	t.Helper()
	var g *graph.Graph
	switch graphKind {
	case "torus":
		g = graph.Torus(6, 6)
	case "pa":
		var err error
		if g, err = graph.PreferentialAttachment(200, 2, seed); err != nil {
			t.Fatal(err)
		}
	}
	var m machine.Machine
	switch machineKind {
	case "max":
		m = algorithms.MaxConsensus(g.MaxDegree())
	case "rounds":
		m = roundsMax(g.MaxDegree(), 40)
	}
	s, err := schedule.Parse(sched, seed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(faults, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := port.Random(g, rand.New(rand.NewSource(seed)))
	return m, p, engine.Options{Executor: engine.ExecutorAsync, Schedule: s, Fault: plan}
}

func TestGoldenHostileCells(t *testing.T) {
	for _, c := range goldenCells {
		name := fmt.Sprintf("%s/%s/%s/%s/w%d", c.graph, c.machine, c.sched, c.faults, c.workers)
		t.Run(name, func(t *testing.T) {
			m, p, opts := hostileCell(t, c.graph, c.machine, c.sched, c.faults, c.seed)
			var journal bytes.Buffer
			opts.Workers = c.workers
			opts.Obs = &obs.Obs{Sink: obs.NewJournalWriter(&journal)}
			opts, rec, err := New(opts, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(m, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Finish(res); err != nil {
				t.Fatal(err)
			}
			var saved bytes.Buffer
			if err := rec.Recording().Save(&saved); err != nil {
				t.Fatal(err)
			}
			r := *res
			r.Shards = 0
			// A hash pins a cell only while the cell exercises what it names.
			acted := map[string]int64{
				"drop": r.Drops, "dup": r.Dups, "byzantine": r.Corruptions,
				"crash": r.Recoveries, "pause": r.Recoveries,
				"retransmit": r.Retransmits, "partition": r.Healed,
			}
			for _, comp := range strings.Split(c.faults, "+") {
				if name, _, _ := strings.Cut(comp, ":"); acted[name] == 0 {
					t.Errorf("fault %s never acted: %+v", comp, r)
				}
			}
			for _, got := range []struct{ what, got, want string }{
				{"journal", sha(journal.Bytes()), c.journal},
				{"recording", sha(saved.Bytes()), c.record},
				{"result", sha(fmt.Appendf(nil, "%+v", r)), c.result},
			} {
				if got.got != got.want {
					t.Errorf("%s SHA-256 = %s, want %s", got.what, got.got, got.want)
				}
			}
		})
	}
}

// goldenSyncCells covers ExecutorSeq and ExecutorPool at 2 and 4 workers,
// a halting machine (MaxDegreeWithin, k=5) and one that exhausts its
// round budget (MaxConsensus, MaxRounds 30); each cell keeps snapshots
// every 4 rounds, so the recording pins the sync snapshot codec (Inbox,
// Pending). An ErrNoHalt cell's recording is unfinished (no end record)
// and its result column hashes the error text.
var goldenSyncCells = []struct {
	graph    string // "torus" (Torus(6,6)) or "pa" (PA(200,2)), numbered by port.Random
	machine  string // "degree" (MaxDegreeWithin k=5, halts) or "max" (MaxConsensus, ErrNoHalt)
	executor engine.Executor
	workers  int
	journal  string
	record   string
	result   string
}{
	{"torus", "degree", engine.ExecutorSeq, 0,
		"24348c21749a746a90d9c95eaba78a31f1ef595e83db5729b6e0f37653601aff",
		"fae7e3104f99387e2ae0a717e2530565fe47bde0b814a537f2969d47e9be2732",
		"050f2e062f0aff03ea3c31866f53bac05e9b04da44e79400f1520569008a9331"},
	{"torus", "degree", engine.ExecutorPool, 2,
		"24348c21749a746a90d9c95eaba78a31f1ef595e83db5729b6e0f37653601aff",
		"fae7e3104f99387e2ae0a717e2530565fe47bde0b814a537f2969d47e9be2732",
		"050f2e062f0aff03ea3c31866f53bac05e9b04da44e79400f1520569008a9331"},
	{"torus", "degree", engine.ExecutorPool, 4,
		"24348c21749a746a90d9c95eaba78a31f1ef595e83db5729b6e0f37653601aff",
		"fae7e3104f99387e2ae0a717e2530565fe47bde0b814a537f2969d47e9be2732",
		"050f2e062f0aff03ea3c31866f53bac05e9b04da44e79400f1520569008a9331"},
	{"torus", "max", engine.ExecutorSeq, 0,
		"549c091b655a33b156d2ad564c18e30dd5420ff86d0fbbb280c1aa721c8ebe24",
		"41494a6ad049d8d2bfb6b44c4ef0f25dcb21064aae25e9743d73e06e0e2f68aa",
		"29b73b36477ae8fefaa72fbaee6ddd3288b1fc231c9fd14fef4dea47354954d6"},
	{"torus", "max", engine.ExecutorPool, 2,
		"549c091b655a33b156d2ad564c18e30dd5420ff86d0fbbb280c1aa721c8ebe24",
		"41494a6ad049d8d2bfb6b44c4ef0f25dcb21064aae25e9743d73e06e0e2f68aa",
		"29b73b36477ae8fefaa72fbaee6ddd3288b1fc231c9fd14fef4dea47354954d6"},
	{"torus", "max", engine.ExecutorPool, 4,
		"549c091b655a33b156d2ad564c18e30dd5420ff86d0fbbb280c1aa721c8ebe24",
		"41494a6ad049d8d2bfb6b44c4ef0f25dcb21064aae25e9743d73e06e0e2f68aa",
		"29b73b36477ae8fefaa72fbaee6ddd3288b1fc231c9fd14fef4dea47354954d6"},
	{"pa", "degree", engine.ExecutorSeq, 0,
		"83a2ce9dcd0328afabdab4711b958edeb3d3516ff809094d2a2229e8a5a8f1ec",
		"99081941f9db3d0d15de1b596627d4755d6a4bac62260f19441d7d6d6abecd00",
		"b2e1d38bc1ef959cfab0a4384d9221d7dfa63cf655045a28d9ebecba1fa44df1"},
	{"pa", "degree", engine.ExecutorPool, 2,
		"83a2ce9dcd0328afabdab4711b958edeb3d3516ff809094d2a2229e8a5a8f1ec",
		"99081941f9db3d0d15de1b596627d4755d6a4bac62260f19441d7d6d6abecd00",
		"b2e1d38bc1ef959cfab0a4384d9221d7dfa63cf655045a28d9ebecba1fa44df1"},
	{"pa", "degree", engine.ExecutorPool, 4,
		"83a2ce9dcd0328afabdab4711b958edeb3d3516ff809094d2a2229e8a5a8f1ec",
		"99081941f9db3d0d15de1b596627d4755d6a4bac62260f19441d7d6d6abecd00",
		"b2e1d38bc1ef959cfab0a4384d9221d7dfa63cf655045a28d9ebecba1fa44df1"},
	{"pa", "max", engine.ExecutorSeq, 0,
		"072770ebfb785296751b87b9353a7fb46b2b47289ae594728886a86ce0b89945",
		"8245a79f247d60b3577bc7e082539c164b32f551d4d4ec22135da30a1400288c",
		"1470beb5ebe4ea026848a5a422eba73f47f7885f865e73097b21bce63844672d"},
	{"pa", "max", engine.ExecutorPool, 2,
		"072770ebfb785296751b87b9353a7fb46b2b47289ae594728886a86ce0b89945",
		"8245a79f247d60b3577bc7e082539c164b32f551d4d4ec22135da30a1400288c",
		"1470beb5ebe4ea026848a5a422eba73f47f7885f865e73097b21bce63844672d"},
	{"pa", "max", engine.ExecutorPool, 4,
		"072770ebfb785296751b87b9353a7fb46b2b47289ae594728886a86ce0b89945",
		"8245a79f247d60b3577bc7e082539c164b32f551d4d4ec22135da30a1400288c",
		"1470beb5ebe4ea026848a5a422eba73f47f7885f865e73097b21bce63844672d"},
}

// init gob-encodes one MaxDegreeWithin state before any test runs. gob
// numbers struct types per process in order of first use and writes the
// number into every recording, so fixing it here keeps the sync cells'
// recording hashes independent of which tests ran, and in which order.
func init() {
	st := algorithms.MaxDegreeWithin(1, 5).Init(0)
	if err := gob.NewEncoder(io.Discard).Encode(st); err != nil {
		panic(err)
	}
}

func TestGoldenSyncCells(t *testing.T) {
	for _, c := range goldenSyncCells {
		name := fmt.Sprintf("%s/%s/%v/w%d", c.graph, c.machine, c.executor, c.workers)
		t.Run(name, func(t *testing.T) {
			var g *graph.Graph
			var seed int64
			switch c.graph {
			case "torus":
				g, seed = graph.Torus(6, 6), 21
			case "pa":
				seed = 22
				var err error
				if g, err = graph.PreferentialAttachment(200, 2, seed); err != nil {
					t.Fatal(err)
				}
			}
			p := port.Random(g, rand.New(rand.NewSource(seed)))
			opts := engine.Options{Executor: c.executor, Workers: c.workers}
			var m machine.Machine
			switch c.machine {
			case "degree":
				m = algorithms.MaxDegreeWithin(g.MaxDegree(), 5)
			case "max":
				m = algorithms.MaxConsensus(g.MaxDegree())
				opts.MaxRounds = 30
			}
			var journal bytes.Buffer
			opts.Obs = &obs.Obs{Sink: obs.NewJournalWriter(&journal)}
			opts, rec, err := New(opts, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(m, p, opts)
			var result []byte
			switch {
			case c.machine == "max":
				if !errors.Is(err, engine.ErrNoHalt) {
					t.Fatalf("err = %v, want ErrNoHalt", err)
				}
				result = []byte(err.Error())
			case err != nil:
				t.Fatal(err)
			default:
				if err := rec.Finish(res); err != nil {
					t.Fatal(err)
				}
				r := *res
				r.Shards = 0
				result = fmt.Appendf(nil, "%+v", r)
			}
			var saved bytes.Buffer
			if err := rec.Recording().Save(&saved); err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct{ what, got, want string }{
				{"journal", sha(journal.Bytes()), c.journal},
				{"recording", sha(saved.Bytes()), c.record},
				{"result", sha(result), c.result},
			} {
				if got.got != got.want {
					t.Errorf("%s SHA-256 = %s, want %s", got.what, got.got, got.want)
				}
			}
		})
	}
}
