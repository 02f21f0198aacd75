// Package views implements Yamashita–Kameda-style views of port-numbered
// graphs — the classical tool of the anonymous-networks literature the
// paper builds on (§3.3, references [59–62]).
//
// The depth-t view of a node v in (G, p) is the rooted tree of everything a
// Vector-class algorithm can learn about v's neighbourhood in t rounds:
// v's degree and, for each in-port i, the out-port the neighbour used and
// that neighbour's depth-(t−1) view. Two nodes have equal depth-t views
// exactly when no VV algorithm can distinguish them within t rounds — that
// is, when they are t-round bisimilar in K₊,₊. Classes, StabilizationDepth
// and Symmetric therefore compute the view partition with internal/bisim's
// refiner on K₊,₊; the package's tests check that equivalence against the
// explicit view trees of Views, connecting the graph-theoretic and the
// modal-logic perspectives computationally.
package views

import (
	"weakmodels/internal/bisim"
	"weakmodels/internal/kripke"
	"weakmodels/internal/port"
	"weakmodels/internal/term"
)

// View computes the depth-t view of node v under p, encoded as a canonical
// term (equal views ⇔ equal terms ⇔ equal encodings).
func View(p *port.Numbering, v, depth int) term.Term {
	all := Views(p, depth)
	return all[v]
}

// Views computes the depth-t views of all nodes simultaneously (dynamic
// programming over depth — the naive recursion is exponential).
func Views(p *port.Numbering, depth int) []term.Term {
	g := p.Graph()
	n := g.N()
	cur := make([]term.Term, n)
	for v := 0; v < n; v++ {
		cur[v] = term.Tuple(term.Int(int64(g.Degree(v))))
	}
	for d := 1; d <= depth; d++ {
		next := make([]term.Term, n)
		for v := 0; v < n; v++ {
			kids := make([]term.Term, 0, g.Degree(v)+1)
			kids = append(kids, term.Int(int64(g.Degree(v))))
			for i := 1; i <= g.Degree(v); i++ {
				src := p.Source(v, i)
				kids = append(kids, term.Tuple(
					term.Int(int64(i)),         // my in-port
					term.Int(int64(src.Index)), // sender's out-port
					cur[src.Node],              // sender's depth-(d-1) view
				))
			}
			next[v] = term.Tuple(kids...)
		}
		cur = next
	}
	return cur
}

// Classes groups nodes by depth-t view equality, returning a class id per
// node (dense, by first occurrence). Unlike Views it never materialises the
// view trees: it is t rounds of bisimulation refinement on K₊,₊, so deep
// views — whose explicit trees grow like Δ^t — cost only O(t·m) time.
func Classes(p *port.Numbering, depth int) []int {
	model := kripke.FromPorts(p, kripke.VariantPP)
	if depth > 0 {
		return bisim.Compute(model, bisim.Options{MaxRounds: depth})
	}
	// Zero rounds see only the degree valuation (MaxRounds 0 would mean
	// refinement to fixpoint).
	ids := make([]int, p.Graph().N())
	for v, c := range model.CSR().ValClass() {
		ids[v] = int(c)
	}
	return ids
}

// StabilizationDepth returns the smallest t at which the view partition
// stops refining (below n, per the classical view theory: views of depth
// n determine views of all depths). This is the locality radius of the
// instance.
func StabilizationDepth(p *port.Numbering) int {
	return bisim.RoundsToStable(kripke.FromPorts(p, kripke.VariantPP), false)
}

// Symmetric reports whether all nodes of (G,p) share the same depth-n view
// — the classical criterion for total symmetry (all nodes bisimilar in
// K₊,₊, Lemma 15's conclusion).
func Symmetric(p *port.Numbering) bool {
	return bisim.Compute(kripke.FromPorts(p, kripke.VariantPP), bisim.Options{}).NumClasses() <= 1
}

// TruncatedViewSize returns the term size of a node's depth-t view — the
// information-volume measure behind the simulation-overhead experiments.
func TruncatedViewSize(p *port.Numbering, v, depth int) int {
	return View(p, v, depth).Size()
}
