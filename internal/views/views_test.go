package views

import (
	"math/rand"
	"testing"

	"weakmodels/internal/bisim"
	"weakmodels/internal/graph"
	"weakmodels/internal/kripke"
	"weakmodels/internal/port"
)

func TestViewDepthZeroIsDegree(t *testing.T) {
	g := graph.Star(3)
	p := port.Canonical(g)
	vs := Views(p, 0)
	if vs[0].Encode() == vs[1].Encode() {
		t.Error("centre and leaf share depth-0 view despite different degrees")
	}
	if vs[1].Encode() != vs[2].Encode() {
		t.Error("two leaves differ at depth 0")
	}
}

// TestViewsMatchBoundedBisimulation is the package's reason to exist: the
// depth-t view partition, read off the explicit view trees of Views, must
// equal t-round bisimulation on K₊,₊ — the classical views of
// Yamashita–Kameda meet the paper's modal-logic lens. Classes, which
// computes the partition by that refinement, must agree with the trees.
func TestViewsMatchBoundedBisimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	graphs := []*graph.Graph{
		graph.Path(6), graph.Cycle(7), graph.Star(4), graph.Figure1Graph(),
		graph.Petersen(), graph.Caterpillar(3, 2),
		graph.DisjointUnion(graph.Cycle(3), graph.Cycle(6)),
	}
	for _, g := range graphs {
		for trial := 0; trial < 3; trial++ {
			p := port.Random(g, rng)
			model := kripke.FromPorts(p, kripke.VariantPP)
			for depth := 0; depth <= 4; depth++ {
				trees := Views(p, depth)
				classIDs := Classes(p, depth)
				part := bisim.Compute(model, bisim.Options{MaxRounds: depth})
				for u := 0; u < g.N(); u++ {
					for v := u + 1; v < g.N(); v++ {
						sameView := trees[u].Encode() == trees[v].Encode()
						var sameBisim bool
						if depth == 0 {
							// Zero rounds: only the degree is visible
							// (bisim.Options{MaxRounds: 0} means fixpoint,
							// so compare against the valuation directly).
							sameBisim = g.Degree(u) == g.Degree(v)
						} else {
							sameBisim = part.Same(u, v)
						}
						if sameView != sameBisim {
							t.Fatalf("%v depth %d nodes %d,%d: view-equal=%v but %d-round-bisimilar=%v",
								g, depth, u, v, sameView, depth, sameBisim)
						}
						if sameClass := classIDs[u] == classIDs[v]; sameClass != sameView {
							t.Fatalf("%v depth %d nodes %d,%d: Classes-equal=%v but view-equal=%v",
								g, depth, u, v, sameClass, sameView)
						}
					}
				}
			}
		}
	}
}

func TestSymmetricNumberings(t *testing.T) {
	// Lemma 15 numbering of a regular graph: all views equal.
	for _, g := range []*graph.Graph{graph.Cycle(5), graph.Petersen(), graph.NoOneFactorCubic()} {
		perms, err := graph.DoubleCoverFactorPermutations(g)
		if err != nil {
			t.Fatal(err)
		}
		p, err := port.FromPermutationFactors(g, perms)
		if err != nil {
			t.Fatal(err)
		}
		if !Symmetric(p) {
			t.Errorf("%v: Lemma 15 numbering not view-symmetric", g)
		}
	}
	// The symmetric consistent cycle numbering is view-symmetric too.
	if !Symmetric(port.SymmetricCycle(6)) {
		t.Error("symmetric cycle numbering not view-symmetric")
	}
	// A star is never view-symmetric (degrees differ).
	if Symmetric(port.Canonical(graph.Star(3))) {
		t.Error("star claimed view-symmetric")
	}
}

func TestStabilizationDepth(t *testing.T) {
	// On a path, views stabilise within diameter-ish rounds; on the
	// symmetric cycle instantly (everything is equivalent from round 0).
	if d := StabilizationDepth(port.SymmetricCycle(8)); d != 0 {
		t.Errorf("symmetric cycle stabilises at %d, want 0", d)
	}
	d := StabilizationDepth(port.Canonical(graph.Path(9)))
	if d < 2 || d > 9 {
		t.Errorf("P9 stabilisation depth %d out of expected range", d)
	}
}

func TestViewGrowth(t *testing.T) {
	// View size grows with depth; on a d-regular graph roughly like d^t.
	p := port.Canonical(graph.Petersen())
	last := 0
	for depth := 0; depth <= 4; depth++ {
		size := TruncatedViewSize(p, 0, depth)
		if size <= last {
			t.Fatalf("view size not growing: depth %d size %d (prev %d)", depth, size, last)
		}
		last = size
	}
}

func TestViewsOnInconsistentNumbering(t *testing.T) {
	// Views are well defined for arbitrary (inconsistent) numberings.
	rng := rand.New(rand.NewSource(101))
	p := port.Random(graph.Cycle(5), rng)
	vs := Views(p, 3)
	if len(vs) != 5 {
		t.Fatal("wrong view count")
	}
}

func BenchmarkViews(b *testing.B) {
	p := port.Canonical(graph.Torus(6, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Views(p, 4)
	}
}
