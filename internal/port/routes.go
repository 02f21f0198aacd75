package port

import "weakmodels/internal/graph"

// Routes is a port numbering compiled into a flat CSR-style routing table.
// Ports are mapped to dense int32 "slots": the ports (v,1)..(v,deg(v)) of
// node v occupy slots off[v]..off[v+1]-1 in order. The table answers
// Dest/Source queries with two array loads, which makes it the substrate of
// the execution engine's round loop: a message written at out-slot s lands
// at inbox slot dest[s] with no neighbour scans.
//
// A Routes is immutable and safe for concurrent use.
type Routes struct {
	// off has length n+1; off[v] is the first slot of node v (CSR offsets).
	off []int32
	// node[s] is the node owning slot s.
	node []int32
	// dest[s] is the slot of p((v,i)) where s is the slot of out-port (v,i).
	dest []int32
	// src[t] is the slot of p⁻¹((u,j)) where t is the slot of in-port (u,j):
	// the reverse index making Source O(1).
	src []int32
}

// compileRoutes flattens the out/in bijections of p into slot arrays.
// It runs once per numbering (see Numbering.Routes).
func compileRoutes(p *Numbering) *Routes {
	g := p.g
	n := g.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(v))
	}
	total := int(off[n])
	r := &Routes{
		off:  off,
		node: make([]int32, total),
		dest: make([]int32, total),
		src:  make([]int32, total),
	}
	// back[a] is v's index in the list of its a-th neighbour u. Lists are
	// sorted and nodes visited in id order, so that index is the number of
	// u's neighbours visited before v: visits[u].
	visits := make([]int32, n)
	back := make([]int32, g.MaxDegree())
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		for a, u := range nbrs {
			back[a] = visits[u]
			visits[u]++
		}
		s := off[v]
		for _, a := range p.out[v] {
			u := nbrs[a]
			t := off[u] + int32(p.in[u][back[a]]-1)
			r.node[s] = int32(v)
			r.dest[s] = t
			r.src[t] = s
			s++
		}
	}
	return r
}

// NumPorts returns the total number of ports |P(G)| = Σ deg(v).
func (r *Routes) NumPorts() int { return len(r.dest) }

// Slot returns the dense slot of port (v,i), 1-based i.
func (r *Routes) Slot(v, i int) int { return int(r.off[v]) + i - 1 }

// PortAt is the inverse of Slot.
func (r *Routes) PortAt(slot int) Port {
	v := r.node[slot]
	return Port{Node: int(v), Index: slot - int(r.off[v]) + 1}
}

// DestSlot returns the slot of p(port-at-slot-s).
func (r *Routes) DestSlot(s int) int { return int(r.dest[s]) }

// SourceSlot returns the slot of p⁻¹(port-at-slot-t).
func (r *Routes) SourceSlot(t int) int { return int(r.src[t]) }

// Offsets exposes the CSR offset array (length n+1) for hot loops.
// Callers must not modify it.
func (r *Routes) Offsets() []int32 { return r.off }

// DestTable exposes the raw out-slot → inbox-slot table for hot loops.
// Callers must not modify it.
func (r *Routes) DestTable() []int32 { return r.dest }

// SourceTable exposes the raw in-slot → out-slot table (the inverse of
// DestTable) for hot loops; the async executor uses it to find, for each
// per-node message queue, the port that feeds it. Callers must not modify
// it.
func (r *Routes) SourceTable() []int32 { return r.src }

// NodeTable exposes the slot → owning-node table for hot loops. Callers
// must not modify it.
func (r *Routes) NodeTable() []int32 { return r.node }

// Locality is the routing table re-indexed by the graph's BFS locality
// order (graph.BFSOrder): node ranks replace node ids, so the inbox slots
// of the nodes a BFS shard owns form one contiguous range of the arena —
// the per-shard arena carve-up the engine's shard runtime is built on.
//
// Rank r owns slots Off[r]..Off[r+1]-1; slot Off[r]+j is out-port j+1 and
// in-port j+1 of node Order[r], and Dest maps each locality out-slot to the
// locality inbox slot its message lands in (preserving in-port indices, so
// vector-mode inboxes are unchanged). Like Routes, a Locality is immutable
// and safe for concurrent use; callers must not modify the tables.
type Locality struct {
	// Order is the BFS locality order: Order[r] is the node of rank r.
	Order []int32
	// Off has length n+1; Off[r] is the first locality slot of rank r.
	Off []int32
	// Dest maps each locality out-slot to its destination locality inbox
	// slot.
	Dest []int32
}

// compileLocality permutes the routing table of p into BFS rank space.
// It runs once per numbering (see Numbering.Locality).
func compileLocality(p *Numbering) *Locality {
	r := p.Routes()
	order := graph.BFSOrder(p.g)
	n := len(order)
	loc := &Locality{
		Order: make([]int32, n),
		Off:   make([]int32, n+1),
		Dest:  make([]int32, len(r.dest)),
	}
	rank := make([]int32, n)
	for rk, v := range order {
		loc.Order[rk] = int32(v)
		rank[v] = int32(rk)
		loc.Off[rk+1] = loc.Off[rk] + int32(p.g.Degree(v))
	}
	for rk, v := range order {
		lo := r.off[v]
		deg := r.off[v+1] - lo
		for j := int32(0); j < deg; j++ {
			d := r.dest[lo+j]
			u := r.node[d]
			loc.Dest[loc.Off[rk]+j] = loc.Off[rank[u]] + (d - r.off[u])
		}
	}
	return loc
}

// Locality returns the BFS-rank-permuted routing table of p, building it
// on first use. The table is cached: repeated calls are free.
func (p *Numbering) Locality() *Locality {
	p.localityOnce.Do(func() { p.locality = compileLocality(p) })
	return p.locality
}
