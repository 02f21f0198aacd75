// Package weakmodels_test is the top-level benchmark harness: one benchmark
// per experiment row of EXPERIMENTS.md (the paper's figures and theorems).
// Custom metrics report the quantities the paper reasons about — rounds,
// message bytes, approximation ratios, bisimulation classes — so running
//
//	go test -bench=. -benchmem
//
// regenerates the full paper-versus-measured record.
package weakmodels_test

import (
	"fmt"
	"math/rand"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/bisim"
	"weakmodels/internal/compile"
	"weakmodels/internal/core"
	"weakmodels/internal/cover"
	"weakmodels/internal/engine"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/simulate"
	"weakmodels/internal/universal"
)

// BenchmarkF1PortNumbering — Figure 1: generating and validating port
// numberings.
func BenchmarkF1PortNumbering(b *testing.B) {
	g := graph.Torus(12, 12)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := port.Random(g, rng)
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2ConsistencyCheck — Figure 2: consistency checking.
func BenchmarkF2ConsistencyCheck(b *testing.B) {
	g := graph.Torus(12, 12)
	p := port.Canonical(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.IsConsistent() {
			b.Fatal("canonical numbering must be consistent")
		}
	}
}

// BenchmarkF5Classify — Figure 5b: the full linear-order derivation.
func BenchmarkF5Classify(b *testing.B) {
	suite := core.Suite{
		Graphs:       []*graph.Graph{graph.Path(3), graph.Cycle(4), graph.Star(3)},
		RandomTrials: 1,
		Seed:         1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(suite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF7KripkeBuild — Figure 7: building the four model variants.
func BenchmarkF7KripkeBuild(b *testing.B) {
	g := graph.Torus(10, 10)
	p := port.Canonical(g)
	for _, variant := range []kripke.Variant{
		kripke.VariantPP, kripke.VariantMP, kripke.VariantPM, kripke.VariantMM,
	} {
		b.Run(variant.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kripke.FromPorts(p, variant)
			}
		})
	}
}

// BenchmarkF8OneFactorization — Figure 8 / Lemma 15: double cover and
// 1-factorization across regular families.
func BenchmarkF8OneFactorization(b *testing.B) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"petersen", graph.Petersen()},
		{"hypercube5", graph.Hypercube(5)},
		{"no1factor", graph.NoOneFactorCubic()},
	} {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.DoubleCoverFactorPermutations(fam.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF9Blossom — Figure 9: maximum matching on the witness graph and
// random cubic graphs.
func BenchmarkF9Blossom(b *testing.B) {
	for _, n := range []int{16, 50, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var g *graph.Graph
			if n == 16 {
				g = graph.NoOneFactorCubic()
			} else {
				var err error
				g, err = graph.RandomRegular(n, 3, rand.New(rand.NewSource(2)))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var nu int
			for i := 0; i < b.N; i++ {
				nu = graph.Nu(g)
			}
			b.ReportMetric(float64(nu), "nu")
		})
	}
}

// BenchmarkT3CompileForward — Table 3 forward: formula → machine → run.
func BenchmarkT3CompileForward(b *testing.B) {
	f := logic.MustParse("<*,*>=2 (<*,*> q1)")
	g := graph.Grid(6, 6)
	p := port.Canonical(g)
	m, _, err := compile.MachineFromFormula(f, g.MaxDegree())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(m, p, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3CompileBackward — Table 3 backward: machine → formula.
func BenchmarkT3CompileBackward(b *testing.B) {
	m := algorithms.OddOdd(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := compile.FormulaFromMachine(m, 3, 1, compile.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3ModelCheck — Table 3: direct model checking as the baseline
// the compiled algorithm is compared against.
func BenchmarkT3ModelCheck(b *testing.B) {
	f := logic.MustParse("<*,*>=2 (<*,*> q1)")
	g := graph.Grid(6, 6)
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logic.Eval(m, f)
	}
}

// BenchmarkThm4Overhead — Theorem 4: the Set-from-Multiset simulation,
// sweeping Δ. Reported metrics: total rounds (inner T + 2Δ warm-up) and
// message bytes (the β-tag growth the paper's open question asks about).
// Δ=4 is excluded from the default sweep: the β_{2Δ} tags grow like
// Δ^{2Δ} and one run already moves ~80 MB (measured once, recorded in
// EXPERIMENTS.md) — which is itself the answer the paper's open question
// anticipates.
func BenchmarkThm4Overhead(b *testing.B) {
	for _, delta := range []int{2, 3} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			g, err := graph.RandomRegular(10, delta, rand.New(rand.NewSource(3)))
			if err != nil {
				b.Fatal(err)
			}
			inner := algorithms.VertexCover2(delta)
			wrapped, err := simulate.SetFromMultiset(inner)
			if err != nil {
				b.Fatal(err)
			}
			p := port.Canonical(g)
			base, err := engine.Run(inner, p, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *engine.Result
			for i := 0; i < b.N; i++ {
				res, err = engine.Run(wrapped, p, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Rounds-base.Rounds), "overhead-rounds")
			b.ReportMetric(float64(res.MessageBytes), "msg-bytes")
		})
	}
}

// BenchmarkThm8History — Theorem 8: the Multiset-from-Vector simulation,
// sweeping the inner runtime T. Message bytes grow with T (full histories).
func BenchmarkThm8History(b *testing.B) {
	for _, t := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {
			g := graph.Cycle(10)
			inner := countdownVector(2, t)
			wrapped, err := simulate.MultisetFromVector(inner)
			if err != nil {
				b.Fatal(err)
			}
			p := port.Canonical(g)
			b.ReportAllocs()
			b.ResetTimer()
			var res *engine.Result
			for i := 0; i < b.N; i++ {
				res, err = engine.Run(wrapped, p, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.MessageBytes), "msg-bytes")
		})
	}
}

// BenchmarkThm11LeafElection / Thm13OddOdd / Thm17LocalTypeMax — the
// positive halves of the separations at benchmark scale.
func BenchmarkThm11LeafElection(b *testing.B) {
	g := graph.Star(50)
	m := algorithms.LeafElect(50)
	p := port.Canonical(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(m, p, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm13OddOdd(b *testing.B) {
	g := graph.Torus(10, 10)
	m := algorithms.OddOdd(4)
	p := port.Canonical(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(m, p, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm17LocalTypeMax(b *testing.B) {
	g := graph.NoOneFactorCubic()
	m := algorithms.LocalTypeMax(3)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := port.RandomConsistent(g, rng)
		if _, err := engine.Run(m, p, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeparationBisim — the negative halves: bisimulation partition
// refinement on the witness models.
func BenchmarkSeparationBisim(b *testing.B) {
	witness13, _, _ := graph.Theorem13Witness()
	cases := []struct {
		name    string
		p       *port.Numbering
		variant kripke.Variant
		graded  bool
	}{
		{"thm11-star-PM", port.Canonical(graph.Star(20)), kripke.VariantPM, false},
		{"thm13-witness-MM", port.Canonical(witness13), kripke.VariantMM, false},
		{"thm17-no1factor-PP", mustSymmetric(b, graph.NoOneFactorCubic()), kripke.VariantPP, false},
		{"graded-torus-MM", port.Canonical(graph.Torus(8, 8)), kripke.VariantMM, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := kripke.FromPorts(tc.p, tc.variant)
			b.ReportAllocs()
			var classes int
			for i := 0; i < b.N; i++ {
				part := bisim.Compute(m, bisim.Options{Graded: tc.graded})
				classes = len(part.Classes())
			}
			b.ReportMetric(float64(classes), "classes")
		})
	}
}

// BenchmarkVC2Ratio — Section 3.3: measured approximation ratio of the MB
// vertex-cover algorithm per family (the paper's headline "non-trivial
// problem in MB(1)" claim: ratio ≤ 2 everywhere).
func BenchmarkVC2Ratio(b *testing.B) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle101", graph.Cycle(101)},
		{"grid8x8", graph.Grid(8, 8)},
		{"petersen", graph.Petersen()},
		{"no1factor", graph.NoOneFactorCubic()},
	} {
		b.Run(fam.name, func(b *testing.B) {
			g := fam.g
			m := algorithms.VertexCover2(g.MaxDegree())
			p := port.Canonical(g)
			b.ReportAllocs()
			var ratio float64
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(m, p, engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				size := 0
				for _, o := range res.Output {
					if o == "1" {
						size++
					}
				}
				ratio = float64(size) / float64(graph.Nu(g)) // vs matching lower bound
				rounds = res.Rounds
			}
			b.ReportMetric(ratio, "cover/nu")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkEngineExecutors — sequential vs worker-pool executor on the same
// workload (library ablation, DESIGN.md §3). The scale sweep lives in
// bench_engine_test.go.
func BenchmarkEngineExecutors(b *testing.B) {
	g := graph.Torus(12, 12)
	p := port.Canonical(g)
	m := algorithms.OddOdd(4)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(m, p, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(m, p, engine.Options{Executor: engine.ExecutorPool}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countdownVector is a Vector machine that sends its out-port number and
// runs exactly t rounds, for the Theorem 8 history-growth sweep.
func countdownVector(delta, t int) machine.Machine {
	type st struct {
		Deg  int
		Left int
	}
	return &machine.Func{
		MachineName:  fmt.Sprintf("countdown-%d", t),
		MachineClass: machine.ClassVV,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return st{Deg: deg, Left: t} },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return "done", x.Left == 0
		},
		SendFunc: func(s machine.State, p int) machine.Message {
			return machine.Message(fmt.Sprintf("p%d-r%d", p, s.(st).Left))
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			x.Left--
			return x
		},
	}
}

func mustSymmetric(b *testing.B, g *graph.Graph) *port.Numbering {
	b.Helper()
	perms, err := graph.DoubleCoverFactorPermutations(g)
	if err != nil {
		b.Fatal(err)
	}
	p, err := port.FromPermutationFactors(g, perms)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkLift — §3.3: permutation-voltage lifts.
func BenchmarkLift(b *testing.B) {
	p := port.Canonical(graph.Petersen())
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := cover.Lift(p, 3, cover.RandomVoltage(3, rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnfold — §3.3: truncated universal covers.
func BenchmarkUnfold(b *testing.B) {
	p := port.Canonical(graph.Petersen())
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		u, err := universal.Unfold(p, 0, 6)
		if err != nil {
			b.Fatal(err)
		}
		size = u.Tree().N()
	}
	b.ReportMetric(float64(size), "tree-nodes")
}

// BenchmarkCharacteristicFormula — Fact 1's converse: building the
// Hennessy–Milner characteristic formulas.
func BenchmarkCharacteristicFormula(b *testing.B) {
	g := graph.Petersen()
	m := kripke.FromPorts(port.Canonical(g), kripke.VariantMM)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bisim.Characteristic(m, 2, 3, true)
	}
}

// BenchmarkTwoFactorizationPetersen1891 — the cited 1891 substrate.
func BenchmarkTwoFactorizationPetersen1891(b *testing.B) {
	g := graph.Torus(6, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graph.TwoFactorization(g); err != nil {
			b.Fatal(err)
		}
	}
}
