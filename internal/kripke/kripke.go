// Package kripke implements Kripke models and the canonical translation of
// a port-numbered graph (G, p) into the four model variants of Section 4.3:
//
//	K₊,₊(G,p) — relations R(i,j), full port information (classes VVc, VV)
//	K₋,₊(G,p) — relations R(∗,j), no incoming ports  (classes MV, SV)
//	K₊,₋(G,p) — relations R(i,∗), no outgoing ports  (class VB)
//	K₋,₋(G,p) — relation  R(∗,∗), neither            (classes MB, SB)
//
// where R(i,j) = {(u,v) : p((v,j)) = (u,i)} — from u's point of view the
// R(i,j)-successor of u is the neighbour w whose out-port j delivers into
// u's in-port i. The valuation interprets q_d as "this node has degree d".
package kripke

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"weakmodels/internal/port"
)

// Star is the wildcard index ∗ in relation labels.
const Star = 0

// Index labels an accessibility relation R(I,J). I is the receiver's
// in-port or Star; J is the sender's out-port or Star.
type Index struct {
	I, J int
}

// String formats the label as the paper does, e.g. "(2,1)", "(∗,1)".
func (x Index) String() string {
	return fmt.Sprintf("(%s,%s)", starOr(x.I), starOr(x.J))
}

func starOr(i int) string {
	if i == Star {
		return "∗"
	}
	return fmt.Sprintf("%d", i)
}

// Variant selects one of the four model translations.
type Variant int

// The four variants K_{a,b} with a = incoming ports, b = outgoing ports.
const (
	VariantPP Variant = iota + 1 // K₊,₊
	VariantMP                    // K₋,₊
	VariantPM                    // K₊,₋
	VariantMM                    // K₋,₋
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantPP:
		return "K(+,+)"
	case VariantMP:
		return "K(−,+)"
	case VariantPM:
		return "K(+,−)"
	case VariantMM:
		return "K(−,−)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Model is a finite multimodal Kripke model. States are 0..N-1. Each
// relation holds one successor row per state, nil where a state has no
// successor. Each proposition's valuation is a bitset over the states,
// bit v of word v/64 set where it holds.
type Model struct {
	n     int
	rels  map[Index][][]int
	props map[string][]uint64

	// csr caches the compiled CSR form (csr.go); invalidated on mutation.
	csr *CSR
}

// NewModel returns an empty model with n states.
func NewModel(n int) *Model {
	return &Model{
		n:     n,
		rels:  make(map[Index][][]int),
		props: make(map[string][]uint64),
	}
}

// N returns the number of states.
func (m *Model) N() int { return m.n }

// AddEdge adds (u,v) to relation α.
func (m *Model) AddEdge(alpha Index, u, v int) {
	m.csr = nil
	succ, ok := m.rels[alpha]
	if !ok {
		succ = make([][]int, m.n)
		m.rels[alpha] = succ
	}
	succ[u] = append(succ[u], v)
}

// SetProp marks proposition q true at state v.
func (m *Model) SetProp(q string, v int) {
	if uint(v) >= uint(m.n) {
		panic(fmt.Sprintf("kripke: state %d outside [0,%d)", v, m.n))
	}
	m.csr = nil
	val, ok := m.props[q]
	if !ok {
		val = make([]uint64, (m.n+63)/64)
		m.props[q] = val
	}
	val[v>>6] |= 1 << (uint(v) & 63)
}

// Prop reports whether q holds at v.
func (m *Model) Prop(q string, v int) bool {
	val, ok := m.props[q]
	return ok && val[v>>6]>>(uint(v)&63)&1 == 1
}

// Succ returns the successors of v under relation α (nil if none). The
// returned slice is shared; callers must not modify it.
func (m *Model) Succ(alpha Index, v int) []int {
	succ, ok := m.rels[alpha]
	if !ok {
		return nil
	}
	return succ[v]
}

// Indices returns the relation labels present in the model, sorted.
func (m *Model) Indices() []Index {
	out := make([]Index, 0, len(m.rels))
	for x := range m.rels {
		out = append(out, x)
	}
	slices.SortFunc(out, func(a, b Index) int {
		if a.I != b.I {
			return cmp.Compare(a.I, b.I)
		}
		return cmp.Compare(a.J, b.J)
	})
	return out
}

// Props returns the proposition names present, sorted.
func (m *Model) Props() []string {
	out := make([]string, 0, len(m.props))
	for q := range m.props {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// PropSig returns a canonical string of the propositions true at v, used by
// bisimulation's initial partition.
func (m *Model) PropSig(v int) string {
	sig := ""
	for _, q := range m.Props() {
		if m.Prop(q, v) {
			sig += q + ";"
		}
	}
	return sig
}

// forEachState calls f on every state of the truth set val, in increasing
// order.
func forEachState(val []uint64, f func(v int)) {
	for w, word := range val {
		for word != 0 {
			f(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// DegreeProp returns the proposition name q_d of the valuation Φ_Δ.
func DegreeProp(d int) string { return "q" + strconv.Itoa(d) }

// FromPorts builds the Kripke model Ka,b(G, p) for the requested variant.
// The valuation sets q_d exactly at the nodes of degree d ≥ 1 (Φ_Δ contains
// no q_0; degree-0 nodes satisfy no degree proposition, matching the paper).
//
// It reads p's routing table (Routes) and allocates per relation and per
// degree proposition, never per state or per edge. One pass over the
// out-slots finds each port's relation and row, a second counts the rows,
// and a third fills them all from one array in slot order, which is the
// (w, j) order in which one AddEdge per port would append. Each row is cut
// with its capacity clipped, so an AddEdge on the built model reallocates
// only the row it grows, and a state without successors keeps a nil row.
func FromPorts(p *port.Numbering, variant Variant) *Model {
	var inPorts, outPorts bool // whether labels keep i, and j
	switch variant {
	case VariantPP:
		inPorts, outPorts = true, true
	case VariantMP:
		outPorts = true
	case VariantPM:
		inPorts = true
	case VariantMM:
	default:
		panic(fmt.Sprintf("kripke: unknown variant %v", variant))
	}
	g := p.Graph()
	n, delta := g.N(), g.MaxDegree()
	r := p.Routes()
	off, dest, node := r.Offsets(), r.DestTable(), r.NodeTable()
	m := &Model{n: n, props: degreeValuation(off, delta)}

	// The port (w, j) at out-slot s, with p((w,j)) = (u, i) at slot
	// dest[s], contributes (u, w) to R(i,j). Labels get dense ids k in
	// order of first appearance, looked up by I·jValues+J, and the row of
	// u in relation k is cell k·n+u. A label's I takes iValues values, its
	// J jValues: Δ+1 where the variant keeps the port, else 1 (only ∗).
	// K(+,+)'s (Δ+1)² ids take less room than its rows: a node of degree
	// Δ alone has Δ in-ports, hence Δ relations of n rows each.
	iValues, jValues := 1, 1
	if inPorts {
		iValues = delta + 1
	}
	if outPorts {
		jValues = delta + 1
	}
	idOf := make([]int32, iValues*jValues) // id+1 of each label, 0 if absent
	var labels []Index
	cell := make([]int, len(dest))
	for s, t := range dest {
		u := node[t]
		var x Index
		if inPorts {
			x.I = int(t-off[u]) + 1
		}
		if outPorts {
			x.J = s - int(off[node[s]]) + 1
		}
		key := x.I*jValues + x.J
		if idOf[key] == 0 {
			labels = append(labels, x)
			idOf[key] = int32(len(labels))
		}
		cell[s] = int(idOf[key]-1)*n + int(u)
	}
	// Count the rows, then turn the counts into start offsets. The fill
	// advances each cell's offset past its entries, so afterwards pos[c]
	// is where cell c ends and cell c+1 starts.
	pos := make([]int32, len(labels)*n+1)
	for _, c := range cell {
		pos[c+1]++
	}
	for c := 1; c < len(pos); c++ {
		pos[c] += pos[c-1]
	}
	flat := make([]int, len(dest))
	for s, c := range cell {
		flat[pos[c]] = int(node[s])
		pos[c]++
	}
	rows := make([][]int, len(labels)*n)
	lo := int32(0)
	for c, hi := range pos[:len(rows)] {
		if hi > lo {
			rows[c] = flat[lo:hi:hi]
		}
		lo = hi
	}
	m.rels = make(map[Index][][]int, len(labels))
	for k, x := range labels {
		m.rels[x] = rows[k*n : (k+1)*n : (k+1)*n]
	}
	return m
}

// degreeValuation returns Φ_Δ over the nodes of the routing table with
// offsets off: q_d's truth set for every degree d ≥ 1 that occurs, all
// cut from one array.
func degreeValuation(off []int32, delta int) map[string][]uint64 {
	n := len(off) - 1
	words := (n + 63) / 64
	count := make([]int, delta+1)
	for v := range n {
		count[off[v+1]-off[v]]++
	}
	present := 0
	for d := 1; d <= delta; d++ {
		if count[d] > 0 {
			present++
		}
	}
	props := make(map[string][]uint64, present)
	sets := make([][]uint64, delta+1)
	backing := make([]uint64, present*words)
	for d := 1; d <= delta; d++ {
		if count[d] > 0 {
			sets[d], backing = backing[:words:words], backing[words:]
			props[DegreeProp(d)] = sets[d]
		}
	}
	for v := range n {
		if d := off[v+1] - off[v]; d >= 1 {
			sets[d][v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return props
}

// DisjointUnion returns the union of two models over the same signature,
// with b's states shifted by a.N(). Bisimilarity across two models is
// bisimilarity inside the union — used by the separation arguments.
func DisjointUnion(a, b *Model) *Model {
	m := NewModel(a.n + b.n)
	// Iterate relations and propositions in sorted order so edge insertion
	// order — and with it every successor row of the union — is
	// deterministic, not a map-walk artifact.
	for _, x := range a.Indices() {
		for u, vs := range a.rels[x] {
			for _, v := range vs {
				m.AddEdge(x, u, v)
			}
		}
	}
	for _, x := range b.Indices() {
		for u, vs := range b.rels[x] {
			for _, v := range vs {
				m.AddEdge(x, u+a.n, v+a.n)
			}
		}
	}
	for _, q := range a.Props() {
		forEachState(a.props[q], func(v int) { m.SetProp(q, v) })
	}
	for _, q := range b.Props() {
		forEachState(b.props[q], func(v int) { m.SetProp(q, v+a.n) })
	}
	return m
}

// VariantForRecvSend maps a machine's information regime onto the model
// variant whose relations carry exactly the same information: incoming port
// numbers visible ⇔ a = +, outgoing port numbers visible ⇔ b = +.
func VariantForRecvSend(incomingVisible, outgoingVisible bool) Variant {
	switch {
	case incomingVisible && outgoingVisible:
		return VariantPP
	case !incomingVisible && outgoingVisible:
		return VariantMP
	case incomingVisible && !outgoingVisible:
		return VariantPM
	default:
		return VariantMM
	}
}
