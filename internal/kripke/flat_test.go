package kripke

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"weakmodels/internal/analysis/allocgen"
	"weakmodels/internal/graph"
	"weakmodels/internal/port"
)

// fromPortsReference is the build FromPorts replaced: one SetProp per
// node of degree d ≥ 1 and one AddEdge per port, in (w, j) order.
func fromPortsReference(p *port.Numbering, variant Variant) *Model {
	g := p.Graph()
	m := NewModel(g.N())
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d >= 1 {
			m.SetProp(DegreeProp(d), v)
		}
	}
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
			}
		}
	}
	return m
}

// compareModels reports the first way got differs from want: a label, a
// successor row (nil-ness included), a valuation or a CSR table. Rows of
// got must also have their capacity clipped to their length.
func compareModels(got, want *Model) error {
	if got.N() != want.N() {
		return fmt.Errorf("N = %d, want %d", got.N(), want.N())
	}
	if g, w := got.Indices(), want.Indices(); !slices.Equal(g, w) {
		return fmt.Errorf("Indices = %v, want %v", g, w)
	}
	for _, x := range want.Indices() {
		for v := 0; v < want.N(); v++ {
			g, w := got.Succ(x, v), want.Succ(x, v)
			if (g == nil) != (w == nil) || !slices.Equal(g, w) || cap(g) != len(g) {
				return fmt.Errorf("R%v row of %d = %v (nil %v, cap %d), want %v (nil %v)", x, v, g, g == nil, cap(g), w, w == nil)
			}
		}
	}
	if g, w := got.Props(), want.Props(); !slices.Equal(g, w) {
		return fmt.Errorf("Props = %v, want %v", g, w)
	}
	for v := 0; v < want.N(); v++ {
		for _, q := range append(want.Props(), "q0") {
			if g, w := got.Prop(q, v), want.Prop(q, v); g != w {
				return fmt.Errorf("Prop(%s, %d) = %v, want %v", q, v, g, w)
			}
		}
		if g, w := got.PropSig(v), want.PropSig(v); g != w {
			return fmt.Errorf("PropSig(%d) = %q, want %q", v, g, w)
		}
	}
	return compareCSRs(got.CSR(), want.CSR())
}

func compareCSRs(got, want *CSR) error {
	type tables struct {
		N, Words, NumVal, MaxOut int
		Indices                  []Index
		Rel, Pred                [][3]any
		ValClass                 []int32
		Props                    []string
		PropBits                 [][]uint64
	}
	read := func(c *CSR) tables {
		t := tables{N: c.N(), Words: c.Words(), NumVal: c.NumValClasses(), MaxOut: c.MaxOutDegree(),
			Indices: c.Indices(), ValClass: c.ValClass(), Props: c.Props()}
		for _, x := range append(slices.Clone(c.Indices()), Index{I: -1, J: -1}) {
			off, succ, ok := c.Rel(x)
			t.Rel = append(t.Rel, [3]any{off, succ, ok})
			poff, pred, ok := c.Pred(x)
			t.Pred = append(t.Pred, [3]any{poff, pred, ok})
		}
		for _, q := range append(c.Props(), "q0") {
			t.PropBits = append(t.PropBits, c.PropBits(q))
		}
		return t
	}
	if g, w := read(got), read(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("CSR tables differ:\n got %+v\nwant %+v", g, w)
	}
	return nil
}

// decodePorts reads a variant and a port.Random seed from the first two
// bytes, n ∈ [0, 32] from the third and one edge from each further pair
// of bytes, dropping self-loops and repeated edges, so that every input
// makes a port-numbered graph.
func decodePorts(data []byte) (*port.Numbering, Variant) {
	var head [3]byte
	copy(head[:], data)
	variant := allVariants[head[0]%4]
	seed := int64(head[1])
	n := int(head[2] % 33)
	var seen [32][32]bool
	var edges []graph.Edge
	for i := 3; i+1 < len(data) && n > 0; i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v || seen[u][v] {
			continue
		}
		seen[u][v], seen[v][u] = true, true
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g, err := graph.New(n, edges)
	if err != nil {
		panic(err)
	}
	return port.Random(g, rand.New(rand.NewSource(seed))), variant
}

// FuzzFromPorts compares FromPorts with fromPortsReference on random
// numberings of arbitrary graphs of up to 32 nodes, in all four variants:
// same labels, rows, valuation and CSR tables, and no panic.
func FuzzFromPorts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1})                                 // one isolated node
	f.Add([]byte{1, 2, 2, 0, 1})                           // an edge
	f.Add([]byte{2, 3, 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})   // C_5
	f.Add([]byte{3, 4, 6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})   // a star
	f.Add([]byte{0, 5, 32, 0, 31, 5, 9, 9, 5, 7, 7, 1, 2}) // sparse, with isolated nodes
	f.Fuzz(func(t *testing.T, data []byte) {
		p, variant := decodePorts(data)
		if err := compareModels(FromPorts(p, variant), fromPortsReference(p, variant)); err != nil {
			t.Fatalf("%v on %v: %v", variant, p.Graph(), err)
		}
	})
}

// bridgeAllocs counts the allocations of the modal-bridge build of
// K(−,−) and its CSR form. The runtime now and then allocates on its own
// around a GC cycle; that only adds, so the least of a few counts is the
// build's own.
func bridgeAllocs(p *port.Numbering) float64 {
	p.Routes()
	least := math.Inf(1)
	for range 5 {
		least = min(least, testing.AllocsPerRun(1, func() { FromPorts(p, VariantMM).CSR() }))
	}
	return least
}

// TestFromPortsAllocations checks that building K(−,−) and its CSR form
// allocates per degree proposition, never per state or per edge: the
// same count on two tori of different sizes, and at most 6 per distinct
// degree plus 32 on preferential-attachment graphs.
func TestFromPortsAllocations(t *testing.T) {
	if allocgen.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	small := bridgeAllocs(port.Canonical(graph.Torus(20, 20)))
	large := bridgeAllocs(port.Canonical(graph.Torus(100, 100)))
	if small != large {
		t.Errorf("K(−,−) of Torus(20,20) makes %.0f allocations and of Torus(100,100) %.0f, want equal counts", small, large)
	}
	for _, n := range []int{500, 5000} {
		g, err := graph.PreferentialAttachment(n, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		degrees := make(map[int]bool)
		for v := 0; v < g.N(); v++ {
			degrees[g.Degree(v)] = true
		}
		got := bridgeAllocs(port.Random(g, rand.New(rand.NewSource(2))))
		if limit := 6*len(degrees) + 32; got > float64(limit) {
			t.Errorf("K(−,−) of PA(%d,3) makes %.0f allocations, want at most %d (%d distinct degrees)", n, got, limit, len(degrees))
		}
	}
}

// BenchmarkFromPortsCSR times the modal-bridge build: K(−,−) of PA(2000,3)
// under a random numbering, and its CSR form.
func BenchmarkFromPortsCSR(b *testing.B) {
	g, err := graph.PreferentialAttachment(2000, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := port.Random(g, rand.New(rand.NewSource(3)))
	p.Routes()
	b.ReportAllocs()
	for b.Loop() {
		FromPorts(p, VariantMM).CSR()
	}
}
