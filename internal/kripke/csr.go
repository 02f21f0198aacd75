package kripke

// csr.go compiles a Model into the flat CSR form the fast logic paths
// consume, mirroring port.Routes: per relation a single offsets/targets
// pair for successors and another for predecessors, plus a dense
// valuation-class id per state and per-proposition bitsets. The compiled
// form is cached on the Model and invalidated by AddEdge/SetProp, like
// Numbering.Routes/Locality — build once, then every refinement round and
// bitset eval is pure slice arithmetic.

import "sort"

// csrRel is one relation's adjacency in compressed-sparse-row form.
type csrRel struct {
	off  []int32 // len n+1; successors of u are succ[off[u]:off[u+1]]
	succ []int32
	poff []int32 // len n+1; predecessors of u are pred[poff[u]:poff[u+1]]
	pred []int32
}

// CSR is the compiled read-only form of a Model. Safe for concurrent
// reads once built; callers must finish mutating the Model first.
type CSR struct {
	n       int
	words   int // bitset words per truth set: (n+63)/64
	indices []Index
	relIdx  map[Index]int
	rels    []csrRel

	valClass []int32 // dense valuation-class id per state
	numVal   int
	propBits map[string][]uint64
}

// CSR returns the compiled form, building it on first use. The cache is
// invalidated by AddEdge/SetProp; like the rest of Model, mutation is not
// safe concurrently with readers.
func (m *Model) CSR() *CSR {
	if m.csr == nil {
		m.csr = compileCSR(m)
	}
	return m.csr
}

func compileCSR(m *Model) *CSR {
	n := m.n
	c := &CSR{
		n:        n,
		words:    (n + 63) / 64,
		indices:  m.Indices(),
		relIdx:   make(map[Index]int),
		propBits: make(map[string][]uint64),
	}
	c.rels = make([]csrRel, len(c.indices))
	for ri, x := range c.indices {
		c.relIdx[x] = ri
		succ := m.rels[x]
		r := csrRel{off: make([]int32, n+1), poff: make([]int32, n+1)}
		total := 0
		for u := 0; u < n; u++ {
			total += len(succ[u])
		}
		r.succ = make([]int32, total)
		r.pred = make([]int32, total)
		// Successor side: direct copy in state order.
		pos := int32(0)
		for u := 0; u < n; u++ {
			r.off[u] = pos
			for _, v := range succ[u] {
				r.succ[pos] = int32(v)
				pos++
			}
		}
		r.off[n] = pos
		// Predecessor side: counting sort on target, so pred rows come
		// out sorted by source state — deterministic regardless of edge
		// insertion order.
		for u := 0; u < n; u++ {
			for _, v := range succ[u] {
				r.poff[v+1]++
			}
		}
		for v := 0; v < n; v++ {
			r.poff[v+1] += r.poff[v]
		}
		cursor := make([]int32, n)
		copy(cursor, r.poff[:n])
		for u := 0; u < n; u++ {
			for _, v := range succ[u] {
				r.pred[cursor[v]] = int32(u)
				cursor[v]++
			}
		}
		c.rels[ri] = r
	}

	// Valuation classes: dense ids by first occurrence over states
	// 0..n-1, the same assignment order PropSig-keyed code produced.
	// The key of state v is its packed proposition membership, the kw
	// bytes keys[v*kw:(v+1)*kw], filled in the same single pass over each
	// proposition's truth values that builds its bitset.
	props := m.Props()
	kw := (len(props) + 7) / 8
	keys := make([]byte, n*kw)
	for qi, q := range props {
		bits := make([]uint64, c.words)
		for v, holds := range m.props[q] {
			if holds {
				bits[v>>6] |= 1 << (uint(v) & 63)
				keys[v*kw+qi>>3] |= 1 << (uint(qi) & 7)
			}
		}
		c.propBits[q] = bits
	}
	c.valClass = make([]int32, n)
	classOf := make(map[string]int32)
	for v := 0; v < n; v++ {
		key := keys[v*kw : (v+1)*kw]
		id, ok := classOf[string(key)]
		if !ok {
			id = int32(len(classOf))
			classOf[string(key)] = id
		}
		c.valClass[v] = id
	}
	c.numVal = len(classOf)
	return c
}

// N returns the number of states.
func (c *CSR) N() int { return c.n }

// Words returns the number of uint64 words in a truth-set bitset.
func (c *CSR) Words() int { return c.words }

// Indices returns the relation labels, sorted. Shared; do not modify.
func (c *CSR) Indices() []Index { return c.indices }

// Rel returns the successor CSR of relation α: offsets (len n+1) and the
// flat successor array. ok is false when the model has no α-edges.
func (c *CSR) Rel(alpha Index) (off, succ []int32, ok bool) {
	ri, found := c.relIdx[alpha]
	if !found {
		return nil, nil, false
	}
	return c.rels[ri].off, c.rels[ri].succ, true
}

// Pred returns the predecessor CSR of relation α (rows sorted by source).
func (c *CSR) Pred(alpha Index) (off, pred []int32, ok bool) {
	ri, found := c.relIdx[alpha]
	if !found {
		return nil, nil, false
	}
	return c.rels[ri].poff, c.rels[ri].pred, true
}

// ValClass returns the dense valuation-class id per state: two states get
// the same id iff they satisfy the same propositions, ids assigned by
// first occurrence in state order. Shared; do not modify.
func (c *CSR) ValClass() []int32 { return c.valClass }

// NumValClasses returns the number of distinct valuation classes.
func (c *CSR) NumValClasses() int { return c.numVal }

// PropBits returns the truth set of proposition q as a bitset (nil when q
// is not in the model). Shared; do not modify.
func (c *CSR) PropBits(q string) []uint64 { return c.propBits[q] }

// Props returns the proposition names present, sorted.
func (c *CSR) Props() []string {
	out := make([]string, 0, len(c.propBits))
	for q := range c.propBits {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// MaxOutDegree returns the largest successor-row length across all
// relations — the scratch sizing bound for refinement signatures.
func (c *CSR) MaxOutDegree() int {
	maxDeg := 0
	for _, r := range c.rels {
		for u := 0; u < c.n; u++ {
			if d := int(r.off[u+1] - r.off[u]); d > maxDeg {
				maxDeg = d
			}
		}
	}
	return maxDeg
}
