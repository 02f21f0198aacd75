package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		ok    bool
	}{
		{"empty", 0, nil, true},
		{"single edge", 2, []Edge{{U: 0, V: 1}}, true},
		{"negative n", -1, nil, false},
		{"out of range", 2, []Edge{{U: 0, V: 2}}, false},
		{"negative node", 2, []Edge{{U: -1, V: 0}}, false},
		{"self loop", 2, []Edge{{U: 1, V: 1}}, false},
		{"duplicate", 2, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.n, tc.edges)
			if (err == nil) != tc.ok {
				t.Errorf("New(%d, %v) err=%v, want ok=%v", tc.n, tc.edges, err, tc.ok)
			}
		})
	}
}

// newReference is the map-based construction New replaced: it checks the
// edges in input order against a set of the edges seen so far, appends to
// per-node lists and sorts them.
func newReference(n int, edges []Edge) ([][]int, bool) {
	if n < 0 {
		return nil, false
	}
	adj := make([][]int, n)
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V || seen[e.normalise()] {
			return nil, false
		}
		seen[e.normalise()] = true
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for _, a := range adj {
		sort.Ints(a)
	}
	return adj, true
}

// decodeGraph reads n ∈ [-1, 64] from the first byte and one edge from
// each further pair of bytes, with endpoints in [-1, n], so that inputs
// hit every rejection as well as valid graphs.
func decodeGraph(data []byte) (int, []Edge) {
	if len(data) == 0 {
		return 0, nil
	}
	n := int(data[0]%66) - 1
	var edges []Edge
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, Edge{U: int(data[i])%(n+2) - 1, V: int(data[i+1])%(n+2) - 1})
	}
	return n, edges
}

// FuzzGraphNew checks New against newReference on arbitrary edge lists: it
// must accept exactly the lists the reference accepts, never panic, and
// build the reference's sorted lists, each with its capacity clipped.
func FuzzGraphNew(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                                  // n = -1
	f.Add([]byte{6, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1})    // C_5 on nodes 0..4
	f.Add([]byte{6, 1, 2, 2, 3, 2, 1})                // duplicate, reversed
	f.Add([]byte{6, 1, 2, 3, 3})                      // self-loop
	f.Add([]byte{6, 0, 2, 6, 2})                      // endpoints -1 and n
	f.Add([]byte{65, 1, 64, 64, 2, 2, 3, 3, 9, 9, 2}) // n = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeGraph(data)
		g, err := New(n, edges)
		want, ok := newReference(n, edges)
		if (err == nil) != ok {
			t.Fatalf("New(%d, %v): err = %v, reference accepts = %v", n, edges, err, ok)
		}
		if !ok {
			return
		}
		if g.N() != n || g.M() != len(edges) {
			t.Fatalf("New(%d, %v) = %v", n, edges, g)
		}
		for v, a := range want {
			got := g.Neighbors(v)
			if !slices.Equal(got, a) || cap(got) != len(got) {
				t.Fatalf("New(%d, %v): node %d lists %v (cap %d), want %v", n, edges, v, got, cap(got), a)
			}
		}
	})
}

func TestBasicAccessors(t *testing.T) {
	g := Figure1Graph()
	if g.N() != 4 || g.M() != 4 || g.MaxDegree() != 3 {
		t.Fatalf("Figure1Graph shape wrong: %v", g)
	}
	wantDeg := []int{3, 2, 2, 1}
	for v, d := range wantDeg {
		if g.Degree(v) != d {
			t.Errorf("deg(%d) = %d, want %d", v, g.Degree(v), d)
		}
	}
	if !g.HasEdge(0, 3) || g.HasEdge(1, 3) || g.HasEdge(2, 2) {
		t.Error("HasEdge wrong")
	}
	if g.NeighborIndex(0, 2) != 1 || g.NeighborIndex(3, 1) != -1 {
		t.Error("NeighborIndex wrong")
	}
	if g.Neighbor(0, 0) != 1 {
		t.Error("Neighbor order not sorted")
	}
	cp := g.NeighborsCopy(0)
	cp[0] = 99
	if g.Neighbor(0, 0) == 99 {
		t.Error("NeighborsCopy aliases internal storage")
	}
}

func TestFamilies(t *testing.T) {
	cases := []struct {
		name         string
		g            *Graph
		n, m, maxDeg int
		connected    bool
		regular      int // -1 if irregular
	}{
		{"path5", Path(5), 5, 4, 2, true, -1},
		{"path1", Path(1), 1, 0, 0, true, 0},
		{"cycle6", Cycle(6), 6, 6, 2, true, 2},
		{"star4", Star(4), 5, 4, 4, true, -1},
		{"k5", Complete(5), 5, 10, 4, true, 4},
		{"k23", CompleteBipartite(2, 3), 5, 6, 3, true, -1},
		{"k33", CompleteBipartite(3, 3), 6, 9, 3, true, 3},
		{"grid23", Grid(2, 3), 6, 7, 3, true, -1},
		{"torus33", Torus(3, 3), 9, 18, 4, true, 4},
		{"q3", Hypercube(3), 8, 12, 3, true, 3},
		{"petersen", Petersen(), 10, 15, 3, true, 3},
		{"caterpillar", Caterpillar(3, 2), 9, 8, 4, true, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m || tc.g.MaxDegree() != tc.maxDeg {
				t.Errorf("shape = (%d,%d,%d), want (%d,%d,%d)",
					tc.g.N(), tc.g.M(), tc.g.MaxDegree(), tc.n, tc.m, tc.maxDeg)
			}
			if tc.g.IsConnected() != tc.connected {
				t.Errorf("IsConnected = %v, want %v", tc.g.IsConnected(), tc.connected)
			}
			k, reg := tc.g.IsRegular()
			if tc.regular >= 0 && (!reg || k != tc.regular) {
				t.Errorf("IsRegular = (%d,%v), want (%d,true)", k, reg, tc.regular)
			}
			if tc.regular < 0 && reg {
				t.Errorf("IsRegular = true, want irregular")
			}
		})
	}
}

func TestComponentsAndUnion(t *testing.T) {
	g := DisjointUnion(Cycle(3), Path(2))
	comps := g.Components()
	if len(comps) != 2 || len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if g.IsConnected() {
		t.Error("disjoint union claims connected")
	}
	if g.N() != 5 || g.M() != 4 {
		t.Errorf("union shape wrong: %v", g)
	}
	if !g.HasEdge(3, 4) || g.HasEdge(2, 3) {
		t.Error("union edges misplaced")
	}
}

func TestBipartition(t *testing.T) {
	if _, ok := Cycle(5).Bipartition(); ok {
		t.Error("odd cycle claimed bipartite")
	}
	side, ok := Cycle(6).Bipartition()
	if !ok {
		t.Fatal("even cycle not bipartite")
	}
	for _, e := range Cycle(6).Edges() {
		if side[e.U] == side[e.V] {
			t.Fatal("bipartition not proper")
		}
	}
	if _, ok := Hypercube(4).Bipartition(); !ok {
		t.Error("hypercube not bipartite")
	}
}

func TestDoubleCover(t *testing.T) {
	g := Petersen()
	cover := DoubleCover(g)
	if cover.N() != 2*g.N() || cover.M() != 2*g.M() {
		t.Fatalf("cover shape wrong: %v", cover)
	}
	if _, ok := cover.Bipartition(); !ok {
		t.Error("double cover must be bipartite")
	}
	k, reg := cover.IsRegular()
	if !reg || k != 3 {
		t.Errorf("cover regularity = (%d,%v), want (3,true)", k, reg)
	}
	// Edges go only between the two copies.
	for _, e := range cover.Edges() {
		if (e.U < g.N()) == (e.V < g.N()) {
			t.Fatalf("cover edge %v within one side", e)
		}
	}
}

func TestInducedAndRemove(t *testing.T) {
	g := Complete(4)
	sub, idx := g.InducedSubgraph([]int{0, 2, 3})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3 wrong: %v", sub)
	}
	if idx[2] != 1 {
		t.Errorf("index map wrong: %v", idx)
	}
	rm, _ := g.RemoveNodes(1)
	if rm.N() != 3 || rm.M() != 3 {
		t.Errorf("RemoveNodes wrong: %v", rm)
	}
}

func TestOddComponentsTutte(t *testing.T) {
	g := NoOneFactorCubic()
	rest, _ := g.RemoveNodes(0)
	if got := rest.OddComponents(); got != 3 {
		t.Errorf("o(G-c) = %d, want 3 (Tutte violation)", got)
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 8, 25} {
		tr := RandomTree(n, rng)
		if tr.N() != n || tr.M() != max(0, n-1) || !tr.IsConnected() {
			t.Errorf("RandomTree(%d) not a tree: %v", n, tr)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ n, k int }{{8, 3}, {10, 4}, {12, 3}, {10, 5}} {
		g, err := RandomRegular(tc.n, tc.k, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.k, err)
		}
		if k, ok := g.IsRegular(); !ok || k != tc.k {
			t.Errorf("RandomRegular(%d,%d) not %d-regular", tc.n, tc.k, tc.k)
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("odd nk accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Error("k >= n accepted")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
