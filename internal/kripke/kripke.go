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
	"fmt"
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

// Model is a finite multimodal Kripke model. States are 0..N-1. Relations
// are stored as successor lists per state. Valuations map proposition names
// to the set of states where they hold.
type Model struct {
	n     int
	rels  map[Index][][]int
	props map[string][]bool

	// csr caches the compiled CSR form (csr.go); invalidated on mutation.
	csr *CSR
}

// NewModel returns an empty model with n states.
func NewModel(n int) *Model {
	return &Model{
		n:     n,
		rels:  make(map[Index][][]int),
		props: make(map[string][]bool),
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
	m.csr = nil
	val, ok := m.props[q]
	if !ok {
		val = make([]bool, m.n)
		m.props[q] = val
	}
	val[v] = true
}

// Prop reports whether q holds at v.
func (m *Model) Prop(q string, v int) bool {
	val, ok := m.props[q]
	return ok && val[v]
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
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
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

// DegreeProp returns the proposition name q_d of the valuation Φ_Δ.
func DegreeProp(d int) string { return "q" + strconv.Itoa(d) }

// FromPorts builds the Kripke model Ka,b(G, p) for the requested variant.
// The valuation sets q_d exactly at the nodes of degree d ≥ 1 (Φ_Δ contains
// no q_0; degree-0 nodes satisfy no degree proposition, matching the paper).
func FromPorts(p *port.Numbering, variant Variant) *Model {
	g := p.Graph()
	m := NewModel(g.N())
	names := make([]string, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d >= 1 {
			if names[d] == "" {
				names[d] = DegreeProp(d)
			}
			m.SetProp(names[d], v)
		}
	}
	// For every port (w, j), p((w,j)) = (u, i) contributes (u, w) to R(i,j).
	for w := 0; w < g.N(); w++ {
		for j := 1; j <= g.Degree(w); j++ {
			d := p.Dest(w, j)
			u, i := d.Node, d.Index
			switch variant {
			case VariantPP:
				m.AddEdge(Index{I: i, J: j}, u, w)
			case VariantMP:
				m.AddEdge(Index{I: Star, J: j}, u, w)
			case VariantPM:
				m.AddEdge(Index{I: i, J: Star}, u, w)
			case VariantMM:
				m.AddEdge(Index{I: Star, J: Star}, u, w)
			default:
				panic(fmt.Sprintf("kripke: unknown variant %v", variant))
			}
		}
	}
	return m
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
		for v, t := range a.props[q] {
			if t {
				m.SetProp(q, v)
			}
		}
	}
	for _, q := range b.Props() {
		for v, t := range b.props[q] {
			if t {
				m.SetProp(q, v+a.n)
			}
		}
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
