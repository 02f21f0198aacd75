package graph

// bfsorder.go implements the locality-aware node orders used to shard a
// graph across workers. A contiguous slice of a breadth-first order is a
// connected, roughly ball-shaped patch of the graph, so partitioning nodes
// into contiguous slices of BFSOrder gives shards whose boundaries cut few
// links — the property the engine's sharded pool executor relies on to
// keep cross-shard message traffic low.

// BFSOrder returns a breadth-first ordering of all nodes: the traversal
// starts at a maximum-degree root (ties broken toward the lowest id — hubs
// are where links concentrate, so growing shards outward from them keeps
// hub links shard-internal) and restarts at a maximum-degree unvisited node
// for every further component. Adjacency lists are sorted, so the order is
// fully deterministic. Every node appears exactly once; isolated nodes form
// their own one-node components at the tail of the degree order.
//
// The order is computed once per graph and cached (the graph is immutable),
// so per-run consumers — ShardByBFS, the engine's shard runtime, weakrun's
// cut telemetry — pay O(1) after the first call. The returned slice is
// shared: callers must not modify it.
func BFSOrder(g *Graph) []int {
	g.bfsOnce.Do(func() { g.bfsOrder = computeBFSOrder(g) })
	return g.bfsOrder
}

// computeBFSOrder is the uncached traversal behind BFSOrder.
func computeBFSOrder(g *Graph) []int {
	n := g.N()
	order := make([]int, 0, n)
	visited := make([]bool, n)
	// Root candidates in degree-descending order, ties to the lowest id: a
	// stable counting sort, where start[top-d] is the first rank of degree d.
	top := g.MaxDegree()
	start := make([]int, top+2)
	for _, a := range g.adj {
		start[top-len(a)+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	roots := make([]int, n)
	for v, a := range g.adj {
		k := top - len(a)
		roots[start[k]] = v
		start[k]++
	}
	for _, root := range roots {
		if visited[root] {
			continue
		}
		visited[root] = true
		order = append(order, root)
		// order[head:] doubles as the BFS queue of the current component.
		for head := len(order) - 1; head < len(order); head++ {
			for _, u := range g.adj[order[head]] {
				if !visited[u] {
					visited[u] = true
					order = append(order, u)
				}
			}
		}
	}
	return order
}

// ShardByBFS partitions the nodes into min(w, n) balanced shards, each a
// contiguous slice of BFSOrder(g): shard s holds the nodes ranked
// [s·n/w, (s+1)·n/w) in the breadth-first order, so shard sizes differ by
// at most one and shard boundaries cut few links. The returned shards are
// non-empty, disjoint, cover every node, and are deterministic for a given
// (graph, w). They alias the cached order: callers must not modify them.
// An empty graph yields no shards.
func ShardByBFS(g *Graph, w int) [][]int {
	n := g.N()
	if n == 0 {
		return nil
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	order := BFSOrder(g)
	shards := make([][]int, w)
	for s := 0; s < w; s++ {
		shards[s] = order[s*n/w : (s+1)*n/w]
	}
	return shards
}

// CutLinks counts the directed links (u→v with u, v adjacent) whose
// endpoints are assigned to different shards — the messages a sharded
// executor writes across shard boundaries. shardOf maps each node to its
// shard id.
func CutLinks(g *Graph, shardOf []int) int {
	cut := 0
	for v := 0; v < g.N(); v++ {
		for _, u := range g.adj[v] {
			if shardOf[u] != shardOf[v] {
				cut++
			}
		}
	}
	return cut
}
