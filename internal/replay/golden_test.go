package replay

// golden_test.go pins the engine's observable bytes on two fixed tables:
// seeded hostile cells of the async executor, and synchronous cells of
// ExecutorSeq and ExecutorPool. Each cell records one run and compares the
// SHA-256 of three artefacts against values captured once and committed:
// the JSONL journal, the saved WRPLAY02 recording and a rendering of the
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
		"de608a345ef162a99fd1c53f6cee750ed3d4ef3881af9a6673173773fe414442",
		"ea1d8d4fa1457c31e8320b7c331ebff403d8c3bd836eebe1b647137b67aa730e",
		"f0e2b41b0e434e658c89be9dfcc4e0fa47a24b297b52cdd17611dabaa6550430"},
	{"torus", "max", "sync", "drop:0.1+dup:0.05", 11, 4,
		"de608a345ef162a99fd1c53f6cee750ed3d4ef3881af9a6673173773fe414442",
		"ea1d8d4fa1457c31e8320b7c331ebff403d8c3bd836eebe1b647137b67aa730e",
		"f0e2b41b0e434e658c89be9dfcc4e0fa47a24b297b52cdd17611dabaa6550430"},
	{"torus", "max", "random:0.5", "dup:0.05+crash:2", 12, 1,
		"898ab64346ff7f82f95c149e4ce6321c779a5e17e3a66050da9c77df56de0d20",
		"174b9acb634628b13660fa239b051b6c3e2274517b1d9fa7ca2c6403bd38d085",
		"789faf8f300a11f98d28b7a9727adb32f0f48a69d0590daa460dbc8c62057098"},
	{"torus", "max", "random:0.5", "dup:0.05+crash:2", 12, 4,
		"898ab64346ff7f82f95c149e4ce6321c779a5e17e3a66050da9c77df56de0d20",
		"174b9acb634628b13660fa239b051b6c3e2274517b1d9fa7ca2c6403bd38d085",
		"789faf8f300a11f98d28b7a9727adb32f0f48a69d0590daa460dbc8c62057098"},
	{"pa", "max", "staleness:2", "byzantine:0.2+pause:2+retransmit:2", 13, 1,
		"688fc695e1bc9b4a434cf0fd9bda063558b82d7cd4ff10a79d07c41db82f18da",
		"3bba78b8ff3b03421c5d1e3962c34697f27c971bd9613108e3220a6247b22a9f",
		"62121211e572cd9a6fdd8990e83ac66200d34512f9f3e08514d77262cca80f36"},
	{"pa", "max", "staleness:2", "byzantine:0.2+pause:2+retransmit:2", 13, 4,
		"688fc695e1bc9b4a434cf0fd9bda063558b82d7cd4ff10a79d07c41db82f18da",
		"3bba78b8ff3b03421c5d1e3962c34697f27c971bd9613108e3220a6247b22a9f",
		"62121211e572cd9a6fdd8990e83ac66200d34512f9f3e08514d77262cca80f36"},
	{"pa", "max", "adversary:3", "partition:8+drop:0.05", 14, 1,
		"38a172590006bca68819109216b3c940f4e99b055ac6cb930b5b0a119632699f",
		"ef70344d0a67b913242fafbd46fce73bf75d0bfbdf5f70f0f8e5e590c2cc2adc",
		"ae68dd0dcba39abba6134606f00f6f1cfbdd05aa2fd645cfa8d139a3294acebc"},
	{"pa", "max", "adversary:3", "partition:8+drop:0.05", 14, 4,
		"38a172590006bca68819109216b3c940f4e99b055ac6cb930b5b0a119632699f",
		"ef70344d0a67b913242fafbd46fce73bf75d0bfbdf5f70f0f8e5e590c2cc2adc",
		"ae68dd0dcba39abba6134606f00f6f1cfbdd05aa2fd645cfa8d139a3294acebc"},
	{"torus", "rounds", "random:0.5", "byzantine:0.3+crash:2,5,40+retransmit:2,6,40", 15, 1,
		"a470bd5281d423e5d88e83acbc7446197472eb1c87195bdb8f4abff577988652",
		"da206501b50c96eb1b3a155abc5c080a41be38db7207023f998a2c61099a06f5",
		"2d9d6fe89dbd1cc9ac3f6ca4e5e955af1325c759c479fa67f6924d274d5b56d2"},
	{"torus", "rounds", "staleness:2", "dup:0.1+pause:2,7,40+partition:6,8,40", 16, 4,
		"359048084e7e8ff741aa9c2cbe1c43101b253ddbda6c10f2e54d7637301263e5",
		"3714fd2e71c60c42cf37b89ddc49b8053a45b8d1023bc2e085343efd6153adb1",
		"8f3c35a7241c25c5129a7a12d63077826a8fdd7abdf3a83d446fd7a70fc0f94e"},
	{"pa", "max", "random:0.5", "byzantine:0.2+partition:8+crash:2+retransmit:2", 17, 1,
		"7609b18b2a263b6eab90f01826c34b5c585dd448c16c215473ec7bbb4a5a6f5a",
		"227fe341f0d0babe2d7cf70f4f366dbd2eb5a57f670e5c2240c69665688cb65e",
		"a2cb61f7444b55d7de8a48c15a1a726cee7f6105d4d3a5c95e5864329a9cab3f"},
	{"pa", "max", "random:0.5", "byzantine:0.2+partition:8+crash:2+retransmit:2", 17, 4,
		"7609b18b2a263b6eab90f01826c34b5c585dd448c16c215473ec7bbb4a5a6f5a",
		"227fe341f0d0babe2d7cf70f4f366dbd2eb5a57f670e5c2240c69665688cb65e",
		"a2cb61f7444b55d7de8a48c15a1a726cee7f6105d4d3a5c95e5864329a9cab3f"},
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

func TestGoldenHostileCells(t *testing.T) {
	for _, c := range goldenCells {
		name := fmt.Sprintf("%s/%s/%s/%s/w%d", c.graph, c.machine, c.sched, c.faults, c.workers)
		t.Run(name, func(t *testing.T) {
			var g *graph.Graph
			switch c.graph {
			case "torus":
				g = graph.Torus(6, 6)
			case "pa":
				var err error
				if g, err = graph.PreferentialAttachment(200, 2, c.seed); err != nil {
					t.Fatal(err)
				}
			}
			p := port.Random(g, rand.New(rand.NewSource(c.seed)))
			var m machine.Machine
			switch c.machine {
			case "max":
				m = algorithms.MaxConsensus(g.MaxDegree())
			case "rounds":
				m = roundsMax(g.MaxDegree(), 40)
			}
			sched, err := schedule.Parse(c.sched, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := fault.Parse(c.faults, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			var journal bytes.Buffer
			opts, rec, err := New(engine.Options{
				Executor: engine.ExecutorAsync,
				Workers:  c.workers,
				Schedule: sched,
				Fault:    plan,
				Obs:      &obs.Obs{Sink: obs.NewJournalWriter(&journal)},
			}, 16, nil)
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
		"cf1dc46cf102c3c0ca42b3bd8d75f8bd419cb1072155f772cd4bb15a3eb477d7",
		"050f2e062f0aff03ea3c31866f53bac05e9b04da44e79400f1520569008a9331"},
	{"torus", "degree", engine.ExecutorPool, 2,
		"24348c21749a746a90d9c95eaba78a31f1ef595e83db5729b6e0f37653601aff",
		"cf1dc46cf102c3c0ca42b3bd8d75f8bd419cb1072155f772cd4bb15a3eb477d7",
		"050f2e062f0aff03ea3c31866f53bac05e9b04da44e79400f1520569008a9331"},
	{"torus", "degree", engine.ExecutorPool, 4,
		"24348c21749a746a90d9c95eaba78a31f1ef595e83db5729b6e0f37653601aff",
		"cf1dc46cf102c3c0ca42b3bd8d75f8bd419cb1072155f772cd4bb15a3eb477d7",
		"050f2e062f0aff03ea3c31866f53bac05e9b04da44e79400f1520569008a9331"},
	{"torus", "max", engine.ExecutorSeq, 0,
		"549c091b655a33b156d2ad564c18e30dd5420ff86d0fbbb280c1aa721c8ebe24",
		"21f6df3a695d878f986b176b7dee8f5ace2d01ea2158961a7081436242156027",
		"29b73b36477ae8fefaa72fbaee6ddd3288b1fc231c9fd14fef4dea47354954d6"},
	{"torus", "max", engine.ExecutorPool, 2,
		"549c091b655a33b156d2ad564c18e30dd5420ff86d0fbbb280c1aa721c8ebe24",
		"21f6df3a695d878f986b176b7dee8f5ace2d01ea2158961a7081436242156027",
		"29b73b36477ae8fefaa72fbaee6ddd3288b1fc231c9fd14fef4dea47354954d6"},
	{"torus", "max", engine.ExecutorPool, 4,
		"549c091b655a33b156d2ad564c18e30dd5420ff86d0fbbb280c1aa721c8ebe24",
		"21f6df3a695d878f986b176b7dee8f5ace2d01ea2158961a7081436242156027",
		"29b73b36477ae8fefaa72fbaee6ddd3288b1fc231c9fd14fef4dea47354954d6"},
	{"pa", "degree", engine.ExecutorSeq, 0,
		"83a2ce9dcd0328afabdab4711b958edeb3d3516ff809094d2a2229e8a5a8f1ec",
		"59392b69ef7530ff63b22b61986065e344ab9633d09db5b2d41421aaa39e5b51",
		"b2e1d38bc1ef959cfab0a4384d9221d7dfa63cf655045a28d9ebecba1fa44df1"},
	{"pa", "degree", engine.ExecutorPool, 2,
		"83a2ce9dcd0328afabdab4711b958edeb3d3516ff809094d2a2229e8a5a8f1ec",
		"59392b69ef7530ff63b22b61986065e344ab9633d09db5b2d41421aaa39e5b51",
		"b2e1d38bc1ef959cfab0a4384d9221d7dfa63cf655045a28d9ebecba1fa44df1"},
	{"pa", "degree", engine.ExecutorPool, 4,
		"83a2ce9dcd0328afabdab4711b958edeb3d3516ff809094d2a2229e8a5a8f1ec",
		"59392b69ef7530ff63b22b61986065e344ab9633d09db5b2d41421aaa39e5b51",
		"b2e1d38bc1ef959cfab0a4384d9221d7dfa63cf655045a28d9ebecba1fa44df1"},
	{"pa", "max", engine.ExecutorSeq, 0,
		"072770ebfb785296751b87b9353a7fb46b2b47289ae594728886a86ce0b89945",
		"2ac87024c9f509d1b09271358811c7373380a3d838cfebf934fc30b0d8429086",
		"1470beb5ebe4ea026848a5a422eba73f47f7885f865e73097b21bce63844672d"},
	{"pa", "max", engine.ExecutorPool, 2,
		"072770ebfb785296751b87b9353a7fb46b2b47289ae594728886a86ce0b89945",
		"2ac87024c9f509d1b09271358811c7373380a3d838cfebf934fc30b0d8429086",
		"1470beb5ebe4ea026848a5a422eba73f47f7885f865e73097b21bce63844672d"},
	{"pa", "max", engine.ExecutorPool, 4,
		"072770ebfb785296751b87b9353a7fb46b2b47289ae594728886a86ce0b89945",
		"2ac87024c9f509d1b09271358811c7373380a3d838cfebf934fc30b0d8429086",
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
