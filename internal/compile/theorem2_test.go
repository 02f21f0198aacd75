package compile

// theorem2_test.go runs compiled machines at scale and under hostile
// links: Theorem 2 as a differential oracle against the bitset evaluator
// at n=10⁴ on every executor, a Byzantine regression for the message
// guard, and FuzzCompiledStep over arbitrary inbox bytes.

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"weakmodels/internal/engine"
	"weakmodels/internal/fault"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

var allVariants = []kripke.Variant{
	kripke.VariantPP, kripke.VariantMP, kripke.VariantPM, kripke.VariantMM,
}

// theorem2Executors are the three ways the engine runs a machine; by
// confluence every fair schedule reaches the synchronous outputs.
var theorem2Executors = []struct {
	name string
	opts func(seed int64) engine.Options
}{
	{"seq", func(int64) engine.Options { return engine.Options{} }},
	{"pool4", func(int64) engine.Options {
		return engine.Options{Executor: engine.ExecutorPool, Workers: 4}
	}},
	{"async-random0.5", func(seed int64) engine.Options {
		return engine.Options{Executor: engine.ExecutorAsync, Schedule: schedule.RandomSubset(seed, 0.5)}
	}},
}

// TestTheorem2Differential is Theorem 2 as a differential oracle at
// n=10⁴: for each of the four variants, a seeded random formula of modal
// depth 3 (graded where the variant allows it) is compiled to a machine
// and run under seq, pool and async on PA and expander graphs with random
// port numberings. Every executor's outputs must equal the evaluator's
// truth set on kripke.FromPorts. Formulas whose truth set is empty or
// everything are redrawn, so no check is vacuous, with one exception: on
// a regular graph all nodes of K₊,₋ and K₋,₋ are bisimilar, so there every
// truth set is uniform and the check is that each executor outputs that
// one value everywhere. Under -short only the PA graph runs.
func TestTheorem2Differential(t *testing.T) {
	const n = 10_000
	families := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"pa", func() (*graph.Graph, error) { return graph.PreferentialAttachment(n, 3, 14) }},
		{"expander", func() (*graph.Graph, error) { return graph.Expander(n, 5, 14) }},
	}
	if testing.Short() {
		families = families[:1]
	}
	for fi, fam := range families {
		g, err := fam.build()
		if err != nil {
			t.Fatal(err)
		}
		_, regular := g.IsRegular()
		rng := rand.New(rand.NewSource(int64(100 + fi)))
		p := port.Random(g, rng)
		for _, variant := range allVariants {
			model := kripke.FromPorts(p, variant)
			graded := variant == kripke.VariantMP || variant == kripke.VariantMM
			broadcast := variant == kripke.VariantPM || variant == kripke.VariantMM
			f, truth, mixed := drawFormula(rng, model, graded, variant)
			if !mixed && !(regular && broadcast) {
				t.Fatalf("%s %v: no formula with a non-trivial truth set in %d draws", fam.name, variant, maxDraws)
			}
			m, got, err := MachineFromFormula(f, g.MaxDegree())
			if err != nil {
				t.Fatalf("%s: MachineFromFormula(%q): %v", fam.name, f, err)
			}
			if got != variant {
				t.Fatalf("%s: %q compiled for %v, want %v", fam.name, f, got, variant)
			}
			for _, ex := range theorem2Executors {
				res, err := engine.Run(m, p, ex.opts(rng.Int63()))
				if err != nil {
					t.Fatalf("%s %v %s: running %q: %v", fam.name, variant, ex.name, f, err)
				}
				for v, out := range res.Output {
					want := truth[v>>6]>>(uint(v)&63)&1 == 1
					if (out == "1") != want {
						t.Fatalf("%s %v %s: %q at node %d: machine outputs %q, evaluator says %v",
							fam.name, variant, ex.name, f, v, out, want)
					}
				}
			}
		}
	}
}

// maxDraws bounds drawFormula's search for a non-trivial formula.
const maxDraws = 200

// drawFormula draws seeded random formulas of modal depth 3 over q1..q5
// and ports 1..5 for the variant, until one has a truth set on model that
// is neither empty nor everything (mixed). After maxDraws of depth 3 it
// settles for the last. Depth 3 is the deepest the generator makes, and
// such a formula has subformulas of every smaller depth.
func drawFormula(rng *rand.Rand, model *kripke.Model, graded bool,
	variant kripke.Variant) (f logic.Formula, truth []uint64, mixed bool) {
	for draws := 0; draws < maxDraws; {
		f = logic.RandomFormulaForVariant(rng, 3, 5, graded, variant)
		if logic.ModalDepth(f) != 3 {
			continue
		}
		draws++
		in := logic.NewInterner()
		truth = logic.NewEvaluator(model, in).Eval(in.Intern(f))
		count := 0
		for _, w := range truth {
			count += bits.OnesCount64(w)
		}
		if count > 0 && count < model.N() {
			return f, truth, true
		}
	}
	return f, truth, false
}

// TestCompiledMachineSurvivesByzantine: a Byzantine plan rewrites payloads
// in flight, so junk reaches the receivers. The compiled machine's guard
// turns every payload μ could not have emitted into m0, and the run
// completes with every node halted on one of the machine's outputs, on
// each variant and for a tuple of formulas.
func TestCompiledMachineSurvivesByzantine(t *testing.T) {
	g, err := graph.PreferentialAttachment(300, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := port.Random(g, rand.New(rand.NewSource(2)))
	type subject struct {
		m       machine.Machine
		outputs []machine.Output
	}
	var subjects []subject
	for _, src := range []string{
		"<*,*>=2 q3",
		"<*,2>=2 (q3 | <*,1> q4)",
		"<2,*> !(<1,*> q3)",
		"<1,2> (q3 & <3,1> q4)",
	} {
		m, _, err := MachineFromFormula(logic.MustParse(src), g.MaxDegree())
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{m, []machine.Output{"0", "1"}})
	}
	tuple, _, err := MachineFromFormulas(map[machine.Output]logic.Formula{
		"two": logic.MustParse("<*,*>=2 q3"),
		"one": logic.MustParse("<*,*> q4"),
	}, g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	subjects = append(subjects, subject{tuple, []machine.Output{"one", "two", ""}})
	for _, s := range subjects {
		res, err := engine.Run(s.m, p, engine.Options{
			Executor: engine.ExecutorAsync,
			Schedule: schedule.RandomSubset(3, 0.5),
			Fault:    fault.Byzantine(4, 0.3),
		})
		if err != nil {
			t.Fatalf("%s: %v", s.m.Name(), err)
		}
		if res.Corruptions == 0 {
			t.Fatalf("%s: no corruptions under a p=0.3 byzantine plan", s.m.Name())
		}
		for v, out := range res.Output {
			if !slices.Contains(s.outputs, out) {
				t.Fatalf("%s: node %d ended with output %q", s.m.Name(), v, out)
			}
		}
	}
}

// fuzzFormulas cover all four variants. Δ = 12 makes the per-port tags
// two digits wide, so zero-padding is exercised too.
var fuzzFormulas = []string{
	"<*,*>=2 q3",
	"<*,2> (q1 & <*,11>=2 q2)",
	"<2,*> !(<1,*> q1)",
	"<1,12> q2 | <2,1> !q1",
}

const fuzzDelta = 12

// emittable reports whether μ of c emits m on some out-port from some
// assignment: it reads the candidate values off m and re-sends them.
func emittable(c *compiled, m string) bool {
	ports := c.delta
	if c.broadcast {
		ports = 1
	}
	for j := 1; j <= ports; j++ {
		vals := make([]Tri, len(c.subs))
		if len(c.send(vals, j)) != len(m) {
			continue
		}
		for k, idx := range c.dsets[j] {
			if v := strings.IndexByte(triBytes, m[c.tagWidth+k]); v >= 0 {
				vals[idx] = Tri(v)
			}
		}
		if c.send(vals, j) == m {
			return true
		}
	}
	return false
}

// FuzzCompiledStep feeds arbitrary bytes as inbox entries to compiled
// machines of every variant. The guard must accept exactly the strings μ
// can emit, and δ must not panic on a guarded inbox, whatever the state.
func FuzzCompiledStep(f *testing.F) {
	type subject struct {
		c *compiled
		m machine.Machine
	}
	var subjects []subject
	for _, src := range fuzzFormulas {
		formula := logic.MustParse(src)
		c, err := newCompiled(formula, fuzzDelta)
		if err != nil {
			f.Fatal(err)
		}
		m, _, err := MachineFromFormula(formula, fuzzDelta)
		if err != nil {
			f.Fatal(err)
		}
		subjects = append(subjects, subject{c, m})
	}
	f.Fuzz(func(t *testing.T, msg string) {
		for _, s := range subjects {
			guard := s.m.(machine.MessageGuard)
			if msg != machine.NoMessage {
				if got, want := guard.ValidMessage(msg), emittable(s.c, msg); got != want {
					t.Fatalf("%s: guard accepts %q: %v; μ can emit it: %v", s.m.Name(), msg, got, want)
				}
			}
			// δ runs from the initial state and from one where only the
			// diamonds are open and their children settled, so every
			// read runs.
			settled := make([]Tri, len(s.c.subs))
			for i, sub := range s.c.subs {
				if _, ok := sub.(logic.Diamond); ok {
					settled[i] = TriU
				}
			}
			for deg := 1; deg <= 3; deg++ {
				inbox := make([]machine.Message, deg)
				for i := range inbox {
					inbox[i] = msg
				}
				machine.GuardInbox(guard, inbox)
				for _, st := range []machine.State{s.m.Init(deg), fmState{Vals: settled}} {
					s.m.Step(st, machine.CanonicalInbox(s.m.Class().Recv, inbox))
				}
			}
		}
	})
}
