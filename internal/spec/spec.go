// Package spec parses the textual graph and numbering specifications used
// by the command-line tools and examples, e.g. "cycle:8", "grid:3x4",
// "random-regular:12,3,7", "fig9", "ports=symmetric".
//
// Both parsers are driven by registry maps; every enumeration of a
// registry (the -list output, the unknown-name errors) sorts before
// ranging, so the listings are deterministic by construction — the
// collect-then-sort idiom weakvet's maporder analyzer enforces for this
// package.
package spec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"weakmodels/internal/graph"
	"weakmodels/internal/port"
)

// graphBuilders is the registry behind ParseGraph: one entry per graph
// family, keyed by its spec name, carrying the advertised form and the
// parser for the text after the colon.
var graphBuilders = map[string]struct {
	form  string
	build func(arg string) (*graph.Graph, error)
}{
	"path": {"path:N", func(arg string) (*graph.Graph, error) {
		n, err := parseN(arg)
		if err == nil {
			err = budget(n, n)
		}
		if err != nil {
			return nil, err
		}
		return graph.Path(n), nil
	}},
	"cycle": {"cycle:N", func(arg string) (*graph.Graph, error) {
		n, err := parseN(arg)
		if err == nil {
			err = budget(n, n)
		}
		if err != nil {
			return nil, err
		}
		if n < 3 {
			return nil, fmt.Errorf("spec: cycle needs n ≥ 3")
		}
		return graph.Cycle(n), nil
	}},
	"star": {"star:K", func(arg string) (*graph.Graph, error) {
		n, err := parseN(arg)
		if err == nil {
			err = budget(add(n, 1), n)
		}
		if err != nil {
			return nil, err
		}
		return graph.Star(n), nil
	}},
	"complete": {"complete:N", func(arg string) (*graph.Graph, error) {
		n, err := parseN(arg)
		if err == nil {
			err = budget(n, mul(n, n)/2)
		}
		if err != nil {
			return nil, err
		}
		return graph.Complete(n), nil
	}},
	"bipartite": {"bipartite:AxB", func(arg string) (*graph.Graph, error) {
		a, b, err := parsePair(arg, "x")
		if err == nil {
			err = budget(add(a, b), mul(a, b))
		}
		if err != nil {
			return nil, err
		}
		return graph.CompleteBipartite(a, b), nil
	}},
	"grid": {"grid:RxC", func(arg string) (*graph.Graph, error) {
		r, c, err := parsePair(arg, "x")
		if err == nil {
			err = budget(mul(r, c), mul(2, mul(r, c)))
		}
		if err != nil {
			return nil, err
		}
		return graph.Grid(r, c), nil
	}},
	"torus": {"torus:RxC", func(arg string) (*graph.Graph, error) {
		r, c, err := parsePair(arg, "x")
		if err == nil {
			err = budget(mul(r, c), mul(2, mul(r, c)))
		}
		if err != nil {
			return nil, err
		}
		if r < 3 || c < 3 {
			return nil, fmt.Errorf("spec: torus needs r,c ≥ 3")
		}
		return graph.Torus(r, c), nil
	}},
	"hypercube": {"hypercube:D", func(arg string) (*graph.Graph, error) {
		d, err := parseN(arg)
		if err != nil {
			return nil, err
		}
		if d > 16 {
			return nil, fmt.Errorf("spec: hypercube dimension %d too large", d)
		}
		return graph.Hypercube(d), nil
	}},
	"caterpillar": {"caterpillar:SxL", func(arg string) (*graph.Graph, error) {
		s, l, err := parsePair(arg, "x")
		if err == nil {
			err = budget(add(s, mul(s, l)), add(s, mul(s, l)))
		}
		if err != nil {
			return nil, err
		}
		return graph.Caterpillar(s, l), nil
	}},
	"petersen": {"petersen", func(string) (*graph.Graph, error) {
		return graph.Petersen(), nil
	}},
	"fig1": {"fig1", func(string) (*graph.Graph, error) {
		return graph.Figure1Graph(), nil
	}},
	"fig9": {"fig9", func(string) (*graph.Graph, error) {
		return graph.NoOneFactorCubic(), nil
	}},
	"witness13": {"witness13", func(string) (*graph.Graph, error) {
		g, _, _ := graph.Theorem13Witness()
		return g, nil
	}},
	"tree": {"tree:N,SEED", func(arg string) (*graph.Graph, error) {
		parts, err := parseInts(arg, 2)
		if err == nil {
			err = budget(parts[0], parts[0])
		}
		if err != nil {
			return nil, err
		}
		return graph.RandomTree(parts[0], rand.New(rand.NewSource(int64(parts[1])))), nil
	}},
	"random-regular": {"random-regular:N,K,SEED", func(arg string) (*graph.Graph, error) {
		parts, err := parseInts(arg, 3)
		if err == nil {
			err = budget(parts[0], mul(parts[0], parts[1])/2)
		}
		if err != nil {
			return nil, err
		}
		return graph.RandomRegular(parts[0], parts[1], rand.New(rand.NewSource(int64(parts[2]))))
	}},
	"expander": {"expander:N,D,SEED", func(arg string) (*graph.Graph, error) {
		parts, err := parseInts(arg, 3)
		if err == nil {
			err = budget(parts[0], mul(parts[0], parts[1])/2)
		}
		if err != nil {
			return nil, err
		}
		return graph.Expander(parts[0], parts[1], int64(parts[2]))
	}},
	"pa": {"pa:N,M,SEED", func(arg string) (*graph.Graph, error) {
		parts, err := parseInts(arg, 3)
		if err == nil {
			err = budget(parts[0], mul(parts[0], parts[1]))
		}
		if err != nil {
			return nil, err
		}
		return graph.PreferentialAttachment(parts[0], parts[1], int64(parts[2]))
	}},
}

// graphAliases maps alternative spellings to registry names.
var graphAliases = map[string]string{
	"no1factor":   "fig9",
	"pref-attach": "pa",
}

// numberingBuilders is the registry behind ParseNumbering, shaped like
// graphBuilders.
var numberingBuilders = map[string]struct {
	form  string
	build func(g *graph.Graph, arg string) (*port.Numbering, error)
}{
	"canonical": {"canonical", func(g *graph.Graph, _ string) (*port.Numbering, error) {
		return port.Canonical(g), nil
	}},
	"random": {"random:SEED", func(g *graph.Graph, arg string) (*port.Numbering, error) {
		seed, err := parseSeed(arg)
		if err != nil {
			return nil, err
		}
		return port.Random(g, rand.New(rand.NewSource(seed))), nil
	}},
	"consistent": {"consistent:SEED", func(g *graph.Graph, arg string) (*port.Numbering, error) {
		seed, err := parseSeed(arg)
		if err != nil {
			return nil, err
		}
		return port.RandomConsistent(g, rand.New(rand.NewSource(seed))), nil
	}},
	"symmetric": {"symmetric", func(g *graph.Graph, _ string) (*port.Numbering, error) {
		perms, err := graph.DoubleCoverFactorPermutations(g)
		if err != nil {
			return nil, fmt.Errorf("spec: symmetric numbering needs a regular graph: %w", err)
		}
		return port.FromPermutationFactors(g, perms)
	}},
}

// GraphSpecs lists the graph specification forms accepted by ParseGraph
// in sorted order, for usage strings and weakrun's -list.
// TestGraphSpecsParse keeps it in sync with the parser.
func GraphSpecs() []string {
	forms := make([]string, 0, len(graphBuilders))
	for _, e := range graphBuilders {
		forms = append(forms, e.form)
	}
	sort.Strings(forms)
	return forms
}

// NumberingSpecs lists the port-numbering forms accepted by
// ParseNumbering in sorted order.
func NumberingSpecs() []string {
	forms := make([]string, 0, len(numberingBuilders))
	for _, e := range numberingBuilders {
		forms = append(forms, e.form)
	}
	sort.Strings(forms)
	return forms
}

// ParseGraph builds a graph from a specification string; GraphSpecs
// lists the supported forms.
func ParseGraph(s string) (*graph.Graph, error) {
	name, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, arg = s[:i], s[i+1:]
	}
	if canonical, ok := graphAliases[name]; ok {
		name = canonical
	}
	e, ok := graphBuilders[name]
	if !ok {
		return nil, fmt.Errorf("spec: unknown graph %q (known: %s)", s, strings.Join(GraphSpecs(), "  "))
	}
	return e.build(arg)
}

// ParseNumbering builds a port numbering of g; NumberingSpecs lists the
// supported forms. The empty string means canonical.
//
//	canonical — the natural consistent numbering
//	random:SEED — uniformly random (generally inconsistent)
//	consistent:SEED — uniformly random consistent
//	symmetric — Lemma 15 numbering (regular graphs) or the symmetric cycle
func ParseNumbering(g *graph.Graph, s string) (*port.Numbering, error) {
	name, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, arg = s[:i], s[i+1:]
	}
	if name == "" {
		name = "canonical"
	}
	e, ok := numberingBuilders[name]
	if !ok {
		return nil, fmt.Errorf("spec: unknown numbering %q (known: %s)", s, strings.Join(NumberingSpecs(), " | "))
	}
	return e.build(g, arg)
}

// Graph size budgets. Every sized family checks its node and edge counts
// against them before it builds anything: specs come from the command
// line, and the constructors allocate in proportion to both counts (or
// panic when a count overflows int), so an unchecked size is an unbounded
// allocation. Counts are upper bounds computed with mul and add, which
// saturate instead of wrapping.
const (
	nodeBudget = 1 << 22
	edgeBudget = 1 << 24
)

// budget reports a graph of the given size that exceeds a budget.
func budget(nodes, edges int) error {
	switch {
	case nodes > nodeBudget:
		return fmt.Errorf("spec: graph exceeds the node budget of %d nodes", nodeBudget)
	case edges > edgeBudget:
		return fmt.Errorf("spec: graph exceeds the edge budget of %d edges", edgeBudget)
	}
	return nil
}

// mul and add combine non-negative sizes, saturating at math.MaxInt — above
// both budgets — where the exact result would overflow.
func mul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func add(a, b int) int {
	if b > math.MaxInt-a {
		return math.MaxInt
	}
	return a + b
}

func parseN(arg string) (int, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("spec: bad size %q", arg)
	}
	return n, nil
}

func parseSeed(arg string) (int64, error) {
	if arg == "" {
		return 1, nil
	}
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spec: bad seed %q", arg)
	}
	return n, nil
}

func parsePair(arg, sep string) (int, int, error) {
	parts := strings.Split(arg, sep)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("spec: expected AxB, got %q", arg)
	}
	a, err := parseN(parts[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := parseN(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func parseInts(arg string, want int) ([]int, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("spec: expected %d comma-separated ints, got %q", want, arg)
	}
	out := make([]int, want)
	for i, p := range parts {
		n, err := parseN(p)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}
