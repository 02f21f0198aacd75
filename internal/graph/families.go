package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph P_n on n nodes (n-1 edges).
func Path(n int) *Graph {
	var edges []Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{U: i, V: i + 1})
	}
	return MustNew(n, edges)
}

// Cycle returns the cycle C_n (n ≥ 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n ≥ 3, got %d", n))
	}
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{U: i, V: (i + 1) % n})
	}
	return MustNew(n, edges)
}

// Star returns the k-star of Theorem 11: centre node 0 adjacent to leaves
// 1..k.
func Star(k int) *Graph {
	edges := make([]Edge, 0, k)
	for i := 1; i <= k; i++ {
		edges = append(edges, Edge{U: 0, V: i})
	}
	return MustNew(k+1, edges)
}

// Complete returns K_n.
func Complete(n int) *Graph {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j})
		}
	}
	return MustNew(n, edges)
}

// CompleteBipartite returns K_{a,b} with side A = 0..a-1, side B = a..a+b-1.
func CompleteBipartite(a, b int) *Graph {
	var edges []Edge
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, Edge{U: i, V: a + j})
		}
	}
	return MustNew(a+b, edges)
}

// Grid returns the r×c grid graph.
func Grid(r, c int) *Graph {
	id := func(i, j int) int { return i*c + j }
	var edges []Edge
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				edges = append(edges, Edge{U: id(i, j), V: id(i, j+1)})
			}
			if i+1 < r {
				edges = append(edges, Edge{U: id(i, j), V: id(i+1, j)})
			}
		}
	}
	return MustNew(r*c, edges)
}

// Torus returns the r×c toroidal grid (4-regular when r,c ≥ 3).
func Torus(r, c int) *Graph {
	if r < 3 || c < 3 {
		panic("graph: torus needs r,c ≥ 3")
	}
	id := func(i, j int) int { return i*c + j }
	var edges []Edge
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			edges = append(edges, Edge{U: id(i, j), V: id(i, (j+1)%c)})
			edges = append(edges, Edge{U: id(i, j), V: id((i+1)%r, j)})
		}
	}
	return MustNew(r*c, edges)
}

// Hypercube returns the d-dimensional hypercube Q_d (d-regular, 2^d nodes).
func Hypercube(d int) *Graph {
	n := 1 << d
	var edges []Edge
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				edges = append(edges, Edge{U: v, V: w})
			}
		}
	}
	return MustNew(n, edges)
}

// Petersen returns the Petersen graph (3-regular, 10 nodes). It is
// 3-regular with a perfect matching, a useful contrast to NoOneFactorCubic.
func Petersen() *Graph {
	var edges []Edge
	for i := 0; i < 5; i++ {
		edges = append(edges,
			Edge{U: i, V: (i + 1) % 5},     // outer pentagon
			Edge{U: i, V: i + 5},           // spokes
			Edge{U: i + 5, V: (i+2)%5 + 5}, // inner pentagram
		)
	}
	return MustNew(10, edges)
}

// RandomTree returns a uniformly random labelled tree on n nodes via a
// Prüfer sequence drawn from rng.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n <= 1 {
		return MustNew(n, nil)
	}
	if n == 2 {
		return MustNew(2, []Edge{{U: 0, V: 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	var edges []Edge
	for _, v := range prufer {
		for u := 0; u < n; u++ {
			if degree[u] == 1 {
				edges = append(edges, Edge{U: u, V: v})
				degree[u]--
				degree[v]--
				break
			}
		}
	}
	u, w := -1, -1
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			if u == -1 {
				u = v
			} else {
				w = v
			}
		}
	}
	edges = append(edges, Edge{U: u, V: w})
	return MustNew(n, edges)
}

// RandomRegular returns a random k-regular simple graph on n nodes using the
// pairing (configuration) model with rejection, or an error when nk is odd
// or the sampler fails to produce a simple graph after many attempts.
func RandomRegular(n, k int, rng *rand.Rand) (*Graph, error) {
	if n*k%2 != 0 {
		return nil, fmt.Errorf("graph: no %d-regular graph on %d nodes (nk odd)", k, n)
	}
	if k >= n {
		return nil, fmt.Errorf("graph: k=%d must be < n=%d", k, n)
	}
	// The pairing model produces a simple graph with probability roughly
	// exp(-(k²-1)/4), which drops below 1% around k = 5; the attempt budget
	// is sized for k ≤ 6 on small n.
	const attempts = 20000
	for try := 0; try < attempts; try++ {
		stubs := make([]int, 0, n*k)
		for v := 0; v < n; v++ {
			for i := 0; i < k; i++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		seen := make(map[Edge]bool, n*k/2)
		edges := make([]Edge, 0, n*k/2)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			e := Edge{U: stubs[i], V: stubs[i+1]}.normalise()
			if e.U == e.V || seen[e] {
				ok = false
				break
			}
			seen[e] = true
			edges = append(edges, e)
		}
		if ok {
			return MustNew(n, edges), nil
		}
	}
	return nil, fmt.Errorf("graph: failed to sample a simple %d-regular graph on %d nodes", k, n)
}

// Expander returns a random d-regular connected graph on n nodes built as
// the union of ⌊d/2⌋ random permutation cycle covers (each contributes
// degree 2 to every node) plus, for odd d, a random perfect matching.
// Random regular graphs of this kind are expanders with high probability;
// attempts producing self-loops, parallel edges or a disconnected union are
// rejected and resampled. Requires 3 ≤ d < n and nd even.
func Expander(n, d int, seed int64) (*Graph, error) {
	if d < 3 || d >= n {
		return nil, fmt.Errorf("graph: expander needs 3 ≤ d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: no %d-regular graph on %d nodes (nd odd)", d, n)
	}
	rng := rand.New(rand.NewSource(seed))
	// Each degree-2 layer (and the odd-d matching) is resampled on its own
	// until it is simple against the union built so far: per-layer rejection
	// succeeds with constant probability, where rejecting whole attempts
	// would decay exponentially in d.
	const attempts = 50
	const layerAttempts = 2000
	for try := 0; try < attempts; try++ {
		seen := make(map[Edge]bool, n*d/2)
		edges := make([]Edge, 0, n*d/2)
		addLayer := func(pairs [][2]int) bool {
			batch := make([]Edge, 0, len(pairs))
			for _, pr := range pairs {
				e := Edge{U: pr[0], V: pr[1]}.normalise()
				if e.U == e.V || seen[e] {
					for _, b := range batch {
						delete(seen, b)
					}
					return false
				}
				seen[e] = true
				batch = append(batch, e)
			}
			edges = append(edges, batch...)
			return true
		}
		sampleLayer := func(pairsOf func() [][2]int) bool {
			for a := 0; a < layerAttempts; a++ {
				if addLayer(pairsOf()) {
					return true
				}
			}
			return false
		}
		ok := true
		for c := 0; c < d/2 && ok; c++ {
			ok = sampleLayer(func() [][2]int {
				pairs := make([][2]int, n)
				for v, w := range rng.Perm(n) {
					pairs[v] = [2]int{v, w}
				}
				return pairs
			})
		}
		if ok && d%2 == 1 {
			ok = sampleLayer(func() [][2]int {
				pairing := rng.Perm(n)
				pairs := make([][2]int, 0, n/2)
				for i := 0; i+1 < n; i += 2 {
					pairs = append(pairs, [2]int{pairing[i], pairing[i+1]})
				}
				return pairs
			})
		}
		if !ok {
			continue
		}
		g := MustNew(n, edges)
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: failed to sample a connected %d-regular expander on %d nodes", d, n)
}

// PreferentialAttachment returns a Barabási–Albert graph on n nodes: a
// K_{m+1} seed clique, then each new node attaches m edges to distinct
// existing nodes chosen proportionally to their current degree (sampled
// from the repeated-endpoints list, the standard linear-time scheme). The
// result is connected with n-m-1 hubs-and-leaves growth steps and
// m(m+1)/2 + (n-m-1)m edges. Requires 1 ≤ m and n > m+1.
func PreferentialAttachment(n, m int, seed int64) (*Graph, error) {
	if m < 1 || n <= m+1 {
		return nil, fmt.Errorf("graph: preferential attachment needs 1 ≤ m and n > m+1, got n=%d m=%d", n, m)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m*(m+1)/2+(n-m-1)*m)
	// endpoints holds every edge endpoint seen so far, so a uniform draw
	// from it is a degree-proportional draw over nodes.
	endpoints := make([]int, 0, 2*cap(edges))
	for u := 0; u <= m; u++ {
		for w := u + 1; w <= m; w++ {
			edges = append(edges, Edge{U: u, V: w})
			endpoints = append(endpoints, u, w)
		}
	}
	// targets keeps draw order; drawn marks the nodes in it, so that the m
	// targets are distinct.
	targets := make([]int, 0, m)
	drawn := make([]bool, n)
	for v := m + 1; v < n; v++ {
		targets = targets[:0]
		for len(targets) < m {
			u := endpoints[rng.Intn(len(endpoints))]
			if !drawn[u] {
				drawn[u] = true
				targets = append(targets, u)
			}
		}
		for _, u := range targets {
			drawn[u] = false
			edges = append(edges, Edge{U: u, V: v})
		}
		// Append endpoints only after all m draws so a node cannot attach
		// to itself via its own fresh edges.
		for _, u := range targets {
			endpoints = append(endpoints, u, v)
		}
	}
	return New(n, edges)
}

// Caterpillar returns a path of length spine with legs extra leaves attached
// to every spine node — a handy irregular bounded-degree family.
func Caterpillar(spine, legs int) *Graph {
	var edges []Edge
	n := spine
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, Edge{U: i, V: i + 1})
	}
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, Edge{U: i, V: n})
			n++
		}
	}
	return MustNew(n, edges)
}
