package port

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"weakmodels/internal/analysis/allocgen"
	"weakmodels/internal/graph"
)

// setUpCase is one graph of the set-up pin with the seed its random
// numberings draw from.
type setUpCase struct {
	name string
	seed int64
	g    func() (*graph.Graph, error)
}

func setUpCases() []setUpCase {
	var cases []setUpCase
	for _, n := range []int{5, 520, 2000, 5000} {
		for seed := int64(1); seed <= 4; seed++ {
			cases = append(cases, setUpCase{
				name: fmt.Sprintf("pa:%d,3,%d", n, seed),
				seed: seed,
				g:    func() (*graph.Graph, error) { return graph.PreferentialAttachment(n, 3, seed) },
			})
		}
	}
	return append(cases,
		setUpCase{name: "torus:12x12", seed: 5, g: func() (*graph.Graph, error) { return graph.Torus(12, 12), nil }},
		setUpCase{name: "expander:1000,5,1", seed: 6, g: func() (*graph.Graph, error) { return graph.Expander(1000, 5, 1) }},
	)
}

// setUpHashes pins, per case, the hash of everything the set-up produces:
// the adjacency lists and BFS order of the graph, and for each of Random,
// RandomConsistent and Canonical the Dest of every port, the four Routes
// tables and Locality's Order, Off and Dest. A seeded stream or table
// layout that moves one entry moves its hash.
var setUpHashes = map[string]string{
	"pa:5,3,1":          "3516f17ddc46d0d1",
	"pa:5,3,2":          "2ac645ab73e1db86",
	"pa:5,3,3":          "19d6cfe926e92831",
	"pa:5,3,4":          "2bbc777a8305b7f0",
	"pa:520,3,1":        "d8060d00aa0ca3d8",
	"pa:520,3,2":        "bfa8036ecee36fc9",
	"pa:520,3,3":        "4af9a859bffd05fe",
	"pa:520,3,4":        "f0a4ac818ec151dc",
	"pa:2000,3,1":       "38c83353a099f903",
	"pa:2000,3,2":       "faaa500deb4b8b44",
	"pa:2000,3,3":       "06db9771ec20dace",
	"pa:2000,3,4":       "54fa1c86ef098b68",
	"pa:5000,3,1":       "4867b68ad98da03d",
	"pa:5000,3,2":       "52daee58db92e580",
	"pa:5000,3,3":       "04f7a5561b275dd2",
	"pa:5000,3,4":       "4ee2ddb396d109c0",
	"torus:12x12":       "dd80b768ecb7bb4c",
	"expander:1000,5,1": "0673d6fda48caf2c",
}

// appendInts appends the length of xs and then each entry, as
// little-endian 64-bit words.
func appendInts[T int | int32](b []byte, xs []T) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
	}
	return b
}

// setUpDigest hashes g and its three numberings; see setUpHashes.
func setUpDigest(g *graph.Graph, seed int64) string {
	var b []byte
	for v := 0; v < g.N(); v++ {
		b = appendInts(b, g.Neighbors(v))
	}
	b = appendInts(b, graph.BFSOrder(g))
	for _, p := range []*Numbering{
		Random(g, rand.New(rand.NewSource(seed))),
		RandomConsistent(g, rand.New(rand.NewSource(seed))),
		Canonical(g),
	} {
		for v := 0; v < g.N(); v++ {
			for i := 1; i <= g.Degree(v); i++ {
				d := p.Dest(v, i)
				b = appendInts(b, []int{d.Node, d.Index})
			}
		}
		r := p.Routes()
		for _, t := range [][]int32{r.Offsets(), r.NodeTable(), r.DestTable(), r.SourceTable()} {
			b = appendInts(b, t)
		}
		loc := p.Locality()
		for _, t := range [][]int32{loc.Order, loc.Off, loc.Dest} {
			b = appendInts(b, t)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestSetUpTablesPinned checks that the seeded graphs, port numberings,
// routing tables and BFS orders are exactly those of the builds the hashes
// were taken from.
func TestSetUpTablesPinned(t *testing.T) {
	for _, c := range setUpCases() {
		g, err := c.g()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := setUpDigest(g, c.seed), setUpHashes[c.name]; got != want {
			t.Errorf("%s: set-up hash %s, want %s", c.name, got, want)
		}
	}
}

// setUpAllocs counts the allocations of one benchmark-shaped set-up:
// PA(n,3), a random numbering, its Routes and its Locality. Now and then
// the runtime allocates on its own during a run (around a GC cycle); that
// only adds, so the least count over a few runs is the set-up's own.
func setUpAllocs(n int) float64 {
	least := math.Inf(1)
	for range 5 {
		least = min(least, testing.AllocsPerRun(1, func() {
			g, err := graph.PreferentialAttachment(n, 3, 1)
			if err != nil {
				panic(err)
			}
			p := Random(g, rand.New(rand.NewSource(2)))
			p.Routes()
			p.Locality()
		}))
	}
	return least
}

// TestSetUpAllocationsIndependentOfN checks that the set-up allocates a
// fixed number of arrays, whatever the graph size: no maps, and nothing
// per node or per edge.
func TestSetUpAllocationsIndependentOfN(t *testing.T) {
	if allocgen.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if small, large := setUpAllocs(500), setUpAllocs(5000); small != large {
		t.Errorf("set-up makes %.0f allocations at n=500 and %.0f at n=5000, want equal counts", small, large)
	}
}

// BenchmarkSetUp times the set-up of the sync-gossip benchmark workload:
// PA(5000,3), a random numbering, its Routes and its Locality.
func BenchmarkSetUp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := graph.PreferentialAttachment(5000, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		p := Random(g, rand.New(rand.NewSource(2)))
		p.Routes()
		p.Locality()
	}
}
