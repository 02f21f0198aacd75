// Package port implements port numberings of graphs (Section 1.2 of the
// paper): bijections p : P(G) → P(G) on the set of ports P(G) = {(v,i) :
// v ∈ V, i ∈ [deg(v)]} with A(p) = A(G), together with consistency
// (p ∘ p = id), canonical and random constructions, the symmetric numberings
// of Lemma 15, and enumeration for small graphs.
//
// Every port numbering decomposes uniquely into two bijections per node:
// an out-assignment (which neighbour each out-port points at) and an
// in-assignment (which in-port each incident edge delivers into). The
// package stores that decomposition directly.
package port

import (
	"fmt"
	"math/rand"
	"sync"

	"weakmodels/internal/graph"
)

// Port identifies port (Node, Index) with 1-based Index ∈ [deg(Node)].
type Port struct {
	Node  int
	Index int
}

// String formats a port as "(v,i)".
func (p Port) String() string { return fmt.Sprintf("(%d,%d)", p.Node, p.Index) }

// Numbering is a port numbering of a fixed graph. Immutable after
// construction; build with one of the constructors below.
type Numbering struct {
	g *graph.Graph
	// out[v][i] = the adjacency index (into g.Neighbors(v)) that out-port
	// i+1 of v points at.
	out [][]int
	// in[v][a] = the in-port index (1-based) of v into which the edge from
	// adjacency-neighbour a of v delivers.
	in [][]int

	// routes is the flat routing table, compiled lazily on first use and
	// shared by Dest/Source and the execution engine.
	routesOnce sync.Once
	routes     *Routes
	// locality is the BFS-rank-permuted routing table (see Locality),
	// compiled lazily for the engine's shard runtime.
	localityOnce sync.Once
	locality     *Locality
}

// Routes returns the compiled flat routing table of p, building it on first
// use. The table is cached: repeated calls are free.
func (p *Numbering) Routes() *Routes {
	p.routesOnce.Do(func() { p.routes = compileRoutes(p) })
	return p.routes
}

// Graph returns the underlying graph.
func (p *Numbering) Graph() *graph.Graph { return p.g }

// Dest returns p((v,i)): the port that messages sent by v to out-port i
// (1-based) arrive at. O(1) via the compiled routing table.
func (p *Numbering) Dest(v, i int) Port {
	r := p.Routes()
	return r.PortAt(int(r.dest[int(r.off[v])+i-1]))
}

// Source returns p⁻¹((u,j)): the port whose messages arrive at in-port j of
// node u. O(1) via the reverse routing index.
func (p *Numbering) Source(u, j int) Port {
	r := p.Routes()
	return r.PortAt(int(r.src[int(r.off[u])+j-1]))
}

// OutNeighbor returns the node that out-port i (1-based) of v points at.
func (p *Numbering) OutNeighbor(v, i int) int {
	return p.g.Neighbor(v, p.out[v][i-1])
}

// OutPortTo returns π(v,u) of Theorem 4: the out-port of v pointing at
// neighbour u (1-based), or 0 if u is not a neighbour.
func (p *Numbering) OutPortTo(v, u int) int {
	a := p.g.NeighborIndex(v, u)
	if a < 0 {
		return 0
	}
	for i, aa := range p.out[v] {
		if aa == a {
			return i + 1
		}
	}
	return 0
}

// InPortFrom returns the in-port of v on which messages from neighbour u
// arrive (1-based), or 0 if u is not a neighbour.
func (p *Numbering) InPortFrom(v, u int) int {
	a := p.g.NeighborIndex(v, u)
	if a < 0 {
		return 0
	}
	return p.in[v][a]
}

// IsConsistent reports whether p is an involution: p(p((v,i))) = (v,i) for
// every port (Section 1.2, Figure 2).
func (p *Numbering) IsConsistent() bool {
	for v := 0; v < p.g.N(); v++ {
		for i := 1; i <= p.g.Degree(v); i++ {
			d := p.Dest(v, i)
			dd := p.Dest(d.Node, d.Index)
			if dd.Node != v || dd.Index != i {
				return false
			}
		}
	}
	return true
}

// Validate checks the internal bijection invariants; constructors call it.
func (p *Numbering) Validate() error {
	top := p.g.MaxDegree()
	seenOutBuf, seenInBuf := make([]bool, top), make([]bool, top)
	for v := 0; v < p.g.N(); v++ {
		d := p.g.Degree(v)
		if len(p.out[v]) != d || len(p.in[v]) != d {
			return fmt.Errorf("port: node %d has %d out / %d in assignments, want %d",
				v, len(p.out[v]), len(p.in[v]), d)
		}
		seenOut, seenIn := seenOutBuf[:d], seenInBuf[:d]
		clear(seenOut)
		clear(seenIn)
		for i := 0; i < d; i++ {
			a := p.out[v][i]
			if a < 0 || a >= d || seenOut[a] {
				return fmt.Errorf("port: node %d out assignment not a bijection", v)
			}
			seenOut[a] = true
			j := p.in[v][i]
			if j < 1 || j > d || seenIn[j-1] {
				return fmt.Errorf("port: node %d in assignment not a bijection", v)
			}
			seenIn[j-1] = true
		}
	}
	return nil
}

// FromRaw builds a numbering from explicit per-node assignments:
// out[v][i] is the adjacency index out-port i+1 points at, and in[v][a] is
// the (1-based) in-port receiving from adjacency-neighbour a. The slices
// are retained; callers must not modify them afterwards.
func FromRaw(g *graph.Graph, out, in [][]int) (*Numbering, error) {
	p := &Numbering{g: g, out: out, in: in}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// carve returns per-node out and in assignments of length deg(v), zeroed
// and all cut from one backing array, each with its capacity clipped.
func carve(g *graph.Graph) (out, in [][]int) {
	n := g.N()
	flat := make([]int, 4*g.M())
	heads := make([][]int, 2*n)
	out, in = heads[:n:n], heads[n:]
	lo := 0
	for v := range out {
		d := g.Degree(v)
		out[v] = flat[lo : lo+d : lo+d]
		in[v] = flat[lo+d : lo+2*d : lo+2*d]
		lo += 2 * d
	}
	return out, in
}

// drawPerm fills a with a permutation of 0..len(a)-1, drawn exactly as
// rng.Perm(len(a)) draws it, including Perm's no-op Intn(1) at i=0: a
// seeded numbering stays the one math/rand's stream gives.
func drawPerm(rng *rand.Rand, a []int) {
	for i := range a {
		j := rng.Intn(i + 1)
		a[i] = a[j]
		a[j] = i
	}
}

// mustValid returns the numbering of g with the given assignments, and
// panics if they are not bijections: the constructors below build them
// so.
func mustValid(g *graph.Graph, out, in [][]int) *Numbering {
	p := &Numbering{g: g, out: out, in: in}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// Canonical returns the natural consistent port numbering: out-port i of v
// points at its i-th neighbour in adjacency order, and in-port numbers equal
// the receiver's adjacency index of the sender. This numbering is always
// consistent.
func Canonical(g *graph.Graph) *Numbering {
	out, in := carve(g)
	for v := range out {
		for i := range out[v] {
			out[v][i] = i
			in[v][i] = i + 1
		}
	}
	return mustValid(g, out, in)
}

// Random returns a uniformly random (generally inconsistent) port numbering:
// independent random out and in bijections at every node.
func Random(g *graph.Graph, rng *rand.Rand) *Numbering {
	out, in := carve(g)
	for v := range out {
		drawPerm(rng, out[v])
		drawPerm(rng, in[v])
		for i := range in[v] {
			in[v][i]++
		}
	}
	return mustValid(g, out, in)
}

// RandomConsistent returns a uniformly random consistent port numbering:
// a random out bijection per node, with in-ports forced by consistency
// (p((u,i)) = (v,j) requires p((v,j)) = (u,i)).
func RandomConsistent(g *graph.Graph, rng *rand.Rand) *Numbering {
	out, in := carve(g)
	for _, o := range out {
		drawPerm(rng, o)
	}
	return fromOutConsistent(g, out, in)
}

// fromOutConsistent fills in with the unique consistent numbering of the
// given out assignment and returns it: the in-port of v for the edge from
// u equals u's slot in v's out assignment.
func fromOutConsistent(g *graph.Graph, out, in [][]int) *Numbering {
	for v := range out {
		for i, a := range out[v] {
			// out-port i+1 of v points at neighbour a. Consistency: the
			// same port is also the in-port for messages from that
			// neighbour.
			in[v][a] = i + 1
		}
	}
	return mustValid(g, out, in)
}

// FromPermutationFactors builds the symmetric port numbering of Lemma 15
// from the permutations π_1..π_k produced by
// graph.DoubleCoverFactorPermutations: out-port i of node u points at
// π_i(u), and the in-port of v for the edge from u is the index i with
// π_i(u) = v. Under this numbering R(i,j) ≠ ∅ iff i = j, and all nodes of a
// regular graph are bisimilar in K₊,₊.
func FromPermutationFactors(g *graph.Graph, perms [][]int) (*Numbering, error) {
	k, reg := g.IsRegular()
	if !reg || len(perms) != k {
		return nil, fmt.Errorf("port: need a %d-regular graph with %d factors, got %d factors",
			k, k, len(perms))
	}
	out, in := carve(g)
	for i, perm := range perms {
		for u, v := range perm {
			au := g.NeighborIndex(u, v)
			if au < 0 {
				return nil, fmt.Errorf("port: factor %d maps %d to non-neighbour %d", i+1, u, v)
			}
			out[u][i] = au
			// The edge arriving at v from u carries in-port i+1: u sent on
			// its port i+1 and, symmetrically, v's in-port for that edge is
			// also i+1 (each factor pairs out-port i with in-port i).
			av := g.NeighborIndex(v, u)
			in[v][av] = i + 1
		}
	}
	p := &Numbering{g: g, out: out, in: in}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("port: factors do not form a numbering: %w", err)
	}
	return p, nil
}

// SymmetricCycle returns the consistent symmetric numbering of the cycle
// C_n in which every node's port 1 points clockwise and port 2
// counter-clockwise — p((v_i,1)) = (v_{i+1},2) and p((v_i,2)) = (v_{i-1},1),
// which is an involution. Under it all nodes are bisimilar in K₊,₊, which is
// the standard argument that, e.g., maximal independent set is not in VVc
// (Section 3.1).
func SymmetricCycle(n int) *Numbering {
	g := graph.Cycle(n)
	out, in := carve(g)
	for v := 0; v < n; v++ {
		succ := (v + 1) % n
		pred := (v + n - 1) % n
		aSucc := g.NeighborIndex(v, succ)
		aPred := g.NeighborIndex(v, pred)
		out[v][0] = aSucc // port 1 → successor
		out[v][1] = aPred // port 2 → predecessor
		in[v][aPred] = 2  // predecessor sent on its port 1, arrives at port 2
		in[v][aSucc] = 1  // successor sent on its port 2, arrives at port 1
	}
	return mustValid(g, out, in)
}

// All enumerates every port numbering of g (all combinations of per-node out
// and in bijections). The count is ∏_v (deg(v)!)², so only call this on very
// small graphs; the limit guards against explosion.
func All(g *graph.Graph, limit int) ([]*Numbering, error) {
	outChoices, err := perNodePerms(g, limit)
	if err != nil {
		return nil, err
	}
	inChoices, err := perNodePerms(g, limit)
	if err != nil {
		return nil, err
	}
	var result []*Numbering
	for _, out0 := range outChoices {
		for _, in0 := range inChoices {
			out, in := carve(g)
			for v := range out {
				copy(out[v], out0[v])
				for i, x := range in0[v] {
					in[v][i] = x + 1
				}
			}
			p := &Numbering{g: g, out: out, in: in}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			result = append(result, p)
			if len(result) > limit {
				return nil, fmt.Errorf("port: more than %d numberings", limit)
			}
		}
	}
	return result, nil
}

// AllConsistent enumerates every consistent port numbering of g
// (∏_v deg(v)! candidates).
func AllConsistent(g *graph.Graph, limit int) ([]*Numbering, error) {
	outChoices, err := perNodePerms(g, limit)
	if err != nil {
		return nil, err
	}
	result := make([]*Numbering, 0, len(outChoices))
	for _, out0 := range outChoices {
		out, in := carve(g)
		for v := range out {
			copy(out[v], out0[v])
		}
		result = append(result, fromOutConsistent(g, out, in))
		if len(result) > limit {
			return nil, fmt.Errorf("port: more than %d consistent numberings", limit)
		}
	}
	return result, nil
}

// perNodePerms returns the cartesian product of permutations of [deg(v)]
// across nodes, bounded by limit.
func perNodePerms(g *graph.Graph, limit int) ([][][]int, error) {
	acc := [][][]int{make([][]int, 0, g.N())}
	for v := 0; v < g.N(); v++ {
		perms := permutations(g.Degree(v))
		var next [][][]int
		for _, partial := range acc {
			for _, pm := range perms {
				ext := make([][]int, len(partial), len(partial)+1)
				copy(ext, partial)
				ext = append(ext, pm)
				next = append(next, ext)
				if len(next) > limit {
					return nil, fmt.Errorf("port: enumeration exceeds limit %d", limit)
				}
			}
		}
		acc = next
	}
	return acc, nil
}

// permutations returns all permutations of 0..d-1.
func permutations(d int) [][]int {
	if d == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == d {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for x := 0; x < d; x++ {
			if !used[x] {
				used[x] = true
				rec(append(cur, x), used)
				used[x] = false
			}
		}
	}
	rec(nil, make([]bool, d))
	return out
}

// LocalType returns the local type t(v) of Theorem 17 under numbering p:
// the tuple (j_1, ..., j_Δ) where j_i is the in-port of the neighbour that
// out-port i of v reaches (0 for i > deg(v)).
func LocalType(p *Numbering, v, delta int) []int {
	t := make([]int, delta)
	for i := 1; i <= p.g.Degree(v); i++ {
		t[i-1] = p.Dest(v, i).Index
	}
	return t
}
