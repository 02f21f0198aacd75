package kripke

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"weakmodels/internal/analysis/allocgen"
	"weakmodels/internal/graph"
	"weakmodels/internal/port"
)

var allVariants = []Variant{VariantPP, VariantMP, VariantPM, VariantMM}

// pinCase is one port-numbered graph of the Kripke pin, with n nodes.
type pinCase struct {
	name string
	n    int
	p    func() (*port.Numbering, error)
}

func pinCases() []pinCase {
	var cases []pinCase
	for _, n := range []int{5, 60, 520, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, numbering := range []struct {
				name   string
				number func(*graph.Graph) *port.Numbering
			}{
				{"random", func(g *graph.Graph) *port.Numbering { return port.Random(g, rand.New(rand.NewSource(seed))) }},
				{"canonical", port.Canonical},
			} {
				cases = append(cases, pinCase{
					name: fmt.Sprintf("pa:%d,3,%d/%s", n, seed, numbering.name),
					n:    n,
					p: func() (*port.Numbering, error) {
						g, err := graph.PreferentialAttachment(n, 3, seed)
						if err != nil {
							return nil, err
						}
						return numbering.number(g), nil
					},
				})
			}
		}
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", graph.Figure1Graph()},
		{"torus:6x6", graph.Torus(6, 6)},
		{"path:2", graph.Path(2)},
	} {
		cases = append(cases, pinCase{
			name: c.name + "/canonical",
			n:    c.g.N(),
			p:    func() (*port.Numbering, error) { return port.Canonical(c.g), nil },
		})
	}
	return cases
}

// kripkeHashes pins, per case, the hash of the four variants' models:
// every successor row with its nil-ness, Indices, Props, each state's
// PropSig, every CSR accessor, and the same rows and valuation of
// DisjointUnion(m, m) when it has at most 2²¹ rows. The hashes were taken from the append-based build
// (one AddEdge per port, one []bool per proposition).
var kripkeHashes = map[string]string{
	"pa:5,3,1/random":       "b7b41728b90f1c46",
	"pa:5,3,1/canonical":    "fe42135f5bc3c9b7",
	"pa:5,3,2/random":       "8c364824e265a9d3",
	"pa:5,3,2/canonical":    "961b32d53e353cdc",
	"pa:5,3,3/random":       "46a9def4dcac2716",
	"pa:5,3,3/canonical":    "2628a56b93ba6918",
	"pa:60,3,1/random":      "b359bc1a65033c62",
	"pa:60,3,1/canonical":   "dc84c514c1e5bb86",
	"pa:60,3,2/random":      "69f7d181dddd11d3",
	"pa:60,3,2/canonical":   "775e127136bb46e6",
	"pa:60,3,3/random":      "8529bb157e49f113",
	"pa:60,3,3/canonical":   "1c62f509a23228d8",
	"pa:520,3,1/random":     "b8f97328ad7d7c89",
	"pa:520,3,1/canonical":  "024ad164b292c82c",
	"pa:520,3,2/random":     "fa60df7326d4be60",
	"pa:520,3,2/canonical":  "c38e0b09511f103f",
	"pa:520,3,3/random":     "b7ebabb8f30527f5",
	"pa:520,3,3/canonical":  "0459237b8dfa64a5",
	"pa:2000,3,1/random":    "94146771db3751a2",
	"pa:2000,3,1/canonical": "9436054fefe05027",
	"pa:2000,3,2/random":    "ec33f29c4f8af05a",
	"pa:2000,3,2/canonical": "8d74e72d39aa2a71",
	"pa:2000,3,3/random":    "3930371e4a6dfdd5",
	"pa:2000,3,3/canonical": "23e2f56660187317",
	"figure1/canonical":     "084b0a9e7beceb67",
	"torus:6x6/canonical":   "7bec05b6f00d8906",
	"path:2/canonical":      "edd33e4adc3c405c",
}

// digest streams little-endian words into a SHA-256, buffered.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(x int) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(x)))
	if len(d.buf) >= 1<<16 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digest) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digest) str(s string) {
	d.int(len(s))
	for i := 0; i < len(s); i++ {
		d.int(int(s[i]))
	}
}

func (d *digest) sum() string {
	d.h.Write(d.buf)
	s := d.h.Sum(nil)
	return hex.EncodeToString(s[:8])
}

func digestInts[T int | int32 | uint64](d *digest, xs []T) {
	d.bool(xs == nil)
	d.int(len(xs))
	for _, x := range xs {
		d.int(int(x))
	}
}

// model hashes what a Model exposes: its size, its labels, every row
// with its nil-ness, its proposition names and each state's PropSig.
func (d *digest) model(m *Model) {
	d.int(m.N())
	indices := m.Indices()
	d.int(len(indices))
	for _, x := range indices {
		d.int(x.I)
		d.int(x.J)
		for v := 0; v < m.N(); v++ {
			digestInts(d, m.Succ(x, v))
		}
	}
	props := m.Props()
	d.int(len(props))
	for _, q := range props {
		d.str(q)
	}
	for v := 0; v < m.N(); v++ {
		d.str(m.PropSig(v))
	}
}

// csr hashes every accessor of c, including the lookups of a label it
// does not have.
func (d *digest) csr(c *CSR) {
	d.int(c.N())
	d.int(c.Words())
	indices := c.Indices()
	d.int(len(indices))
	for _, x := range indices {
		d.rel(c, x)
	}
	d.rel(c, Index{I: -1, J: -1})
	digestInts(d, c.ValClass())
	d.int(c.NumValClasses())
	props := c.Props()
	d.int(len(props))
	for _, q := range append(props, "q0", "absent") {
		d.str(q)
		digestInts(d, c.PropBits(q))
	}
	d.int(c.MaxOutDegree())
}

// rel hashes the successor and predecessor tables of label x.
func (d *digest) rel(c *CSR, x Index) {
	d.int(x.I)
	d.int(x.J)
	off, succ, ok := c.Rel(x)
	d.bool(ok)
	digestInts(d, off)
	digestInts(d, succ)
	poff, pred, ok := c.Pred(x)
	d.bool(ok)
	digestInts(d, poff)
	digestInts(d, pred)
}

func kripkeDigest(p *port.Numbering) string {
	d := newDigest()
	for _, variant := range allVariants {
		m := FromPorts(p, variant)
		d.model(m)
		d.csr(m.CSR())
		// K(+,+) on PA(2000,3) has about 1,450 relations of n rows each:
		// its self-union would hold 2n row headers for each, 140 MB.
		if len(m.Indices())*m.N() <= 1<<20 {
			d.model(DisjointUnion(m, m))
		}
	}
	return d.sum()
}

// TestKripkeTablesPinned checks that every model FromPorts builds, its
// CSR form and its self-union are exactly those of the build the hashes
// were taken from. The build runs on one goroutine, so the race detector
// has nothing to find in it; under the detector the n = 2000 cases, which
// would take about 30 s and 560 MB there, are left out.
func TestKripkeTablesPinned(t *testing.T) {
	for _, c := range pinCases() {
		if allocgen.RaceEnabled && c.n > 520 {
			continue
		}
		p, err := c.p()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := kripkeDigest(p), kripkeHashes[c.name]; got != want {
			t.Errorf("%s: Kripke hash %s, want %s", c.name, got, want)
		}
	}
}
