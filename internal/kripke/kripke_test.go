package kripke

import (
	"fmt"
	"testing"

	"weakmodels/internal/graph"
	"weakmodels/internal/port"
)

func TestFromPortsPP(t *testing.T) {
	g := graph.Path(2) // one edge
	p := port.Canonical(g)
	m := FromPorts(p, VariantPP)
	if m.N() != 2 {
		t.Fatalf("N = %d", m.N())
	}
	// Canonical numbering on an edge: both ends use port 1 in and out.
	succ := m.Succ(Index{I: 1, J: 1}, 0)
	if len(succ) != 1 || succ[0] != 1 {
		t.Errorf("R(1,1) successors of 0 = %v, want [1]", succ)
	}
	if !m.Prop(DegreeProp(1), 0) || m.Prop(DegreeProp(2), 0) {
		t.Error("valuation wrong")
	}
}

func TestRelationCounts(t *testing.T) {
	g := graph.Figure1Graph()
	p := port.Canonical(g)

	// Total edge count across all relations must be 2|E| in every variant
	// (one pair (u,w) per port of w).
	for _, variant := range []Variant{VariantPP, VariantMP, VariantPM, VariantMM} {
		m := FromPorts(p, variant)
		total := 0
		for _, alpha := range m.Indices() {
			for v := 0; v < m.N(); v++ {
				total += len(m.Succ(alpha, v))
			}
		}
		if total != 2*g.M() {
			t.Errorf("%v: %d relation pairs, want %d", variant, total, 2*g.M())
		}
	}
}

func TestFigure7Relations(t *testing.T) {
	// On any (G,p): R(∗,∗) must be the symmetric edge relation, R(i,∗) the
	// "who feeds my in-port i" relation, R(∗,j) the "whose out-port j
	// reaches me" relation, and the R(i,j) must partition R(∗,∗).
	g := graph.Figure1Graph()
	p := port.Canonical(g)

	mm := FromPorts(p, VariantMM)
	star := Index{I: Star, J: Star}
	for v := 0; v < g.N(); v++ {
		succ := append([]int(nil), mm.Succ(star, v)...)
		if len(succ) != g.Degree(v) {
			t.Fatalf("R(∗,∗) successors of %d: %v", v, succ)
		}
		for _, w := range succ {
			if !g.HasEdge(v, w) {
				t.Fatalf("R(∗,∗) contains non-edge (%d,%d)", v, w)
			}
		}
	}

	pm := FromPorts(p, VariantPM)
	for v := 0; v < g.N(); v++ {
		for i := 1; i <= g.Degree(v); i++ {
			succ := pm.Succ(Index{I: i, J: Star}, v)
			if len(succ) != 1 {
				t.Fatalf("R(%d,∗) successors of %d = %v, want exactly 1", i, v, succ)
			}
			// The successor is the node whose message arrives at in-port i.
			src := p.Source(v, i)
			if succ[0] != src.Node {
				t.Errorf("R(%d,∗) successor of %d = %d, want %d", i, v, succ[0], src.Node)
			}
		}
	}

	mp := FromPorts(p, VariantMP)
	for v := 0; v < g.N(); v++ {
		count := 0
		for j := 1; j <= g.MaxDegree(); j++ {
			count += len(mp.Succ(Index{I: Star, J: j}, v))
		}
		if count != g.Degree(v) {
			t.Errorf("R(∗,·) successor count of %d = %d, want %d", v, count, g.Degree(v))
		}
	}

	pp := FromPorts(p, VariantPP)
	perNode := make([]int, g.N())
	for _, alpha := range pp.Indices() {
		for v := 0; v < g.N(); v++ {
			perNode[v] += len(pp.Succ(alpha, v))
		}
	}
	for v := 0; v < g.N(); v++ {
		if perNode[v] != g.Degree(v) {
			t.Errorf("R(i,j) successors of %d = %d, want %d", v, perNode[v], g.Degree(v))
		}
	}
}

func TestSymmetricNumberingDiagonal(t *testing.T) {
	// Under a Lemma 15 numbering, R(i,j) is empty off the diagonal.
	g := graph.Petersen()
	perms, err := graph.DoubleCoverFactorPermutations(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := port.FromPermutationFactors(g, perms)
	if err != nil {
		t.Fatal(err)
	}
	m := FromPorts(p, VariantPP)
	for _, alpha := range m.Indices() {
		if alpha.I != alpha.J {
			for v := 0; v < m.N(); v++ {
				if len(m.Succ(alpha, v)) > 0 {
					t.Fatalf("off-diagonal relation %v non-empty at %d", alpha, v)
				}
			}
		}
	}
}

func TestDisjointUnion(t *testing.T) {
	p1 := port.Canonical(graph.Path(2))
	p2 := port.Canonical(graph.Cycle(3))
	a := FromPorts(p1, VariantMM)
	b := FromPorts(p2, VariantMM)
	u := DisjointUnion(a, b)
	if u.N() != 5 {
		t.Fatalf("union size %d", u.N())
	}
	star := Index{I: Star, J: Star}
	if got := u.Succ(star, 2); len(got) != 2 {
		t.Errorf("shifted node 2 (cycle node 0) has successors %v", got)
	}
	if !u.Prop(DegreeProp(2), 3) {
		t.Error("shifted valuation lost")
	}
	for _, w := range u.Succ(star, 0) {
		if w >= 2 {
			t.Error("union mixed components")
		}
	}
}

func TestVariantForRecvSend(t *testing.T) {
	if VariantForRecvSend(true, true) != VariantPP ||
		VariantForRecvSend(false, true) != VariantMP ||
		VariantForRecvSend(true, false) != VariantPM ||
		VariantForRecvSend(false, false) != VariantMM {
		t.Error("variant mapping wrong")
	}
}

func TestPropSig(t *testing.T) {
	m := NewModel(2)
	m.SetProp("a", 0)
	m.SetProp("b", 0)
	m.SetProp("a", 1)
	if m.PropSig(0) == m.PropSig(1) {
		t.Error("different valuations, same signature")
	}
}

func BenchmarkKripkeBuild(b *testing.B) {
	g := graph.Torus(10, 10)
	p := port.Canonical(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromPorts(p, VariantPP)
	}
}

// TestDegreePropNames checks DegreeProp against the fmt form it replaced,
// on negative, small and multi-digit degrees.
func TestDegreePropNames(t *testing.T) {
	for d := -3; d <= 300; d++ {
		if got, want := DegreeProp(d), fmt.Sprintf("q%d", d); got != want {
			t.Errorf("DegreeProp(%d) = %q, want %q", d, got, want)
		}
	}
}
