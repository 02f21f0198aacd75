// Package graph implements the simple undirected bounded-degree graphs
// F(Δ) of the paper (Section 1.1) together with every graph-theoretic
// substrate the constructions need: standard families, bipartite double
// covers (Lemma 15), maximum matching via Edmonds' blossom algorithm and
// Hopcroft–Karp, 1-factorizations of regular bipartite graphs, and the
// cubic no-1-factor witness of Figure 9.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is an immutable simple undirected graph on nodes 0..N-1. The zero
// Graph is the empty graph. Adjacency lists are kept sorted, so "port i of
// node v in adjacency order" is deterministic. All lists are cut from one
// backing array, each with its capacity clipped to its length, so the
// graph costs a fixed number of allocations whatever its size.
type Graph struct {
	adj [][]int

	// bfs is the locality order of bfsorder.go, computed lazily on first
	// use and shared by every sharded executor run on this graph.
	bfsOnce  sync.Once
	bfsOrder []int
}

// Edge is an undirected edge; U < V in normalised form.
type Edge struct {
	U, V int
}

// normalise orders the endpoints.
func (e Edge) normalise() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// New builds a graph on n nodes from the given edges. It returns an error if
// an edge endpoint is out of range, a self-loop is present, or an edge is
// duplicated (the graphs of the paper are simple). When several edges are
// bad, the error names the first out-of-range or self-loop edge of the
// input if there is one, and otherwise the duplicate at the lowest node.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	deg := make([]int, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		deg[e.U]++
		deg[e.V]++
	}
	nbrs := make([]int, 2*len(edges))
	adj := make([][]int, n)
	lo := 0
	for v, d := range deg {
		hi := lo + d
		adj[v] = nbrs[lo:lo:hi]
		lo = hi
	}
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	// A sorted list shows a duplicate edge as two equal neighbours side by
	// side, and the lower endpoint's list is checked first.
	for v, a := range adj {
		slices.Sort(a)
		for i := 1; i < len(a); i++ {
			if a[i] == a[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge %v", Edge{U: v, V: a[i]})
			}
		}
	}
	return &Graph{adj: adj}, nil
}

// MustNew is New panicking on error, for fixed test fixtures and families.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Degree returns deg(v).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for _, a := range g.adj {
		if len(a) > d {
			d = len(a)
		}
	}
	return d
}

// Neighbors returns the sorted neighbours of v. The returned slice is shared
// and must not be modified by the caller; use NeighborsCopy to mutate. It
// is a window of the graph's one backing array with its capacity clipped
// to its length, so an append to it copies instead of overwriting the next
// node's list.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// NeighborsCopy returns a fresh copy of the neighbours of v.
func (g *Graph) NeighborsCopy(v int) []int { return append([]int(nil), g.adj[v]...) }

// Neighbor returns the i-th neighbour of v in adjacency order (0-based).
func (g *Graph) Neighbor(v, i int) int { return g.adj[v][i] }

// NeighborIndex returns the position of u in v's sorted adjacency list, or -1.
func (g *Graph) NeighborIndex(v, u int) int {
	a := g.adj[v]
	i := sort.SearchInts(a, u)
	if i < len(a) && a[i] == u {
		return i
	}
	return -1
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return u != v && g.NeighborIndex(u, v) >= 0 }

// Edges returns all edges in normalised sorted order.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for u, a := range g.adj {
		for _, v := range a {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// DegreeSequence returns the sorted (ascending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.N())
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	sort.Ints(ds)
	return ds
}

// IsRegular reports whether all degrees equal k for some k, returning k.
// The empty graph is 0-regular.
func (g *Graph) IsRegular() (k int, ok bool) {
	if g.N() == 0 {
		return 0, true
	}
	k = g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) != k {
			return 0, false
		}
	}
	return k, true
}

// IsConnected reports whether the graph is connected. The empty graph and
// singletons count as connected.
func (g *Graph) IsConnected() bool { return len(g.Components()) <= 1 }

// Components returns the connected components as sorted node lists.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, w := range g.adj[comp[i]] {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Bipartition returns a valid 2-colouring (sides A and B) if the graph is
// bipartite, with ok=false otherwise.
func (g *Graph) Bipartition() (side []int, ok bool) {
	side = make([]int, g.N())
	for i := range side {
		side[i] = -1
	}
	for s := 0; s < g.N(); s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if side[w] == -1 {
					side[w] = 1 - side[v]
					queue = append(queue, w)
				} else if side[w] == side[v] {
					return nil, false
				}
			}
		}
	}
	return side, true
}

// DisjointUnion returns the disjoint union of g and h; nodes of h are
// renumbered with offset g.N(). Graph problems in the paper (Section 1.4)
// are defined on arbitrary, possibly disconnected graphs, and the Theorem 13
// separation witness is a disjoint union.
func DisjointUnion(g, h *Graph) *Graph {
	off := g.N()
	edges := g.Edges()
	for _, e := range h.Edges() {
		edges = append(edges, Edge{U: e.U + off, V: e.V + off})
	}
	return MustNew(g.N()+h.N(), edges)
}

// DoubleCover returns the bipartite double cover G* of Lemma 15: nodes
// (v,1) ↦ v and (v,2) ↦ v + g.N(), with an edge {(u,1),(v,2)} for every
// edge {u,v} of g (both orientations).
func DoubleCover(g *Graph) *Graph {
	n := g.N()
	var edges []Edge
	for _, e := range g.Edges() {
		edges = append(edges, Edge{U: e.U, V: e.V + n}, Edge{U: e.V, V: e.U + n})
	}
	return MustNew(2*n, edges)
}

// InducedSubgraph returns the subgraph induced by keep (sorted unique node
// ids) along with the mapping old→new node id.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, map[int]int) {
	idx := make(map[int]int, len(keep))
	for i, v := range keep {
		idx[v] = i
	}
	var edges []Edge
	for _, v := range keep {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && idx[v] < j {
				edges = append(edges, Edge{U: idx[v], V: j})
			}
		}
	}
	return MustNew(len(keep), edges), idx
}

// RemoveNodes returns the graph with the given nodes deleted (and the
// old→new mapping), used for Tutte-condition checks.
func (g *Graph) RemoveNodes(drop ...int) (*Graph, map[int]int) {
	dropSet := make(map[int]bool, len(drop))
	for _, v := range drop {
		dropSet[v] = true
	}
	var keep []int
	for v := 0; v < g.N(); v++ {
		if !dropSet[v] {
			keep = append(keep, v)
		}
	}
	return g.InducedSubgraph(keep)
}

// OddComponents returns the number of odd-order connected components,
// the quantity o(G) of Tutte's theorem.
func (g *Graph) OddComponents() int {
	odd := 0
	for _, c := range g.Components() {
		if len(c)%2 == 1 {
			odd++
		}
	}
	return odd
}

// String returns a short description, e.g. "graph(n=5, m=4, Δ=3)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.N(), g.M(), g.MaxDegree())
}
