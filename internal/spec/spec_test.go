package spec

import (
	"runtime"
	"strings"
	"testing"

	"weakmodels/internal/graph"
)

func TestParseGraph(t *testing.T) {
	cases := []struct {
		src  string
		n, m int
	}{
		{"path:5", 5, 4},
		{"cycle:6", 6, 6},
		{"star:4", 5, 4},
		{"complete:4", 4, 6},
		{"bipartite:2x3", 5, 6},
		{"grid:2x3", 6, 7},
		{"torus:3x3", 9, 18},
		{"hypercube:3", 8, 12},
		{"caterpillar:3x1", 6, 5},
		{"petersen", 10, 15},
		{"fig1", 4, 4},
		{"fig9", 16, 24},
		{"no1factor", 16, 24},
		{"witness13", 11, 9},
		{"tree:7,3", 7, 6},
		{"random-regular:8,3,1", 8, 12},
		{"expander:12,4,1", 12, 24},
		{"pa:10,2,1", 10, 17},
		{"pref-attach:10,2,1", 10, 17},
	}
	for _, tc := range cases {
		g, err := ParseGraph(tc.src)
		if err != nil {
			t.Errorf("ParseGraph(%q): %v", tc.src, err)
			continue
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Errorf("ParseGraph(%q) = (%d,%d), want (%d,%d)", tc.src, g.N(), g.M(), tc.n, tc.m)
		}
	}
}

func TestParseGraphErrors(t *testing.T) {
	bad := []string{
		"", "nope", "cycle:2", "cycle:x", "grid:3", "torus:2x2",
		"hypercube:40", "tree:5", "random-regular:5,3,1", "path:-1",
		"expander:5,2,1", "expander:9,3,1", "pa:3,2,1", "pa:5,0,1",
	}
	for _, src := range bad {
		if _, err := ParseGraph(src); err == nil {
			t.Errorf("ParseGraph(%q) succeeded, want error", src)
		}
	}
}

// TestParseGraphBudget: a spec whose graph exceeds the node or edge budget
// — including sizes whose product or sum overflows int — is an error that
// names the budget, returned before any graph is allocated. At the sizes
// below the constructors panic (makeslice out of range) or allocate until
// the process is killed.
func TestParseGraphBudget(t *testing.T) {
	over := []struct{ src, want string }{
		{"star:4611686018427387904", "node budget"},
		{"bipartite:0x4611686018427387904", "node budget"},
		{"path:4611686018427387904", "node budget"},
		{"cycle:4611686018427387904", "node budget"},
		{"torus:3037000500x3037000500", "node budget"},
		{"grid:4294967296x4294967296", "node budget"},
		{"caterpillar:3x4611686018427387904", "node budget"},
		{"tree:9223372036854775807,1", "node budget"},
		{"complete:100000", "edge budget"},
		{"bipartite:5000x5000", "edge budget"},
		{"random-regular:4000000,9,1", "edge budget"},
		{"expander:4000000,4611686018427387904,1", "edge budget"},
		{"pa:4000000,5,1", "edge budget"},
	}
	// At the edge budget exactly: N·K = 2²⁵+1 half-edges make 2²⁴ edges,
	// so these pass the budget and reach their constructors, which refuse
	// the odd degree sum themselves before allocating.
	at := []struct{ src, want string }{
		{"random-regular:3050403,11,1", "odd"},
		{"expander:3050403,11,1", "odd"},
	}
	for _, tc := range append(over, at...) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		g, err := ParseGraph(tc.src)
		runtime.ReadMemStats(&ms)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseGraph(%q) = %v, %v; want an error naming %q", tc.src, g, err, tc.want)
		}
		if grew := ms.TotalAlloc - before; grew > 1<<16 {
			t.Errorf("ParseGraph(%q) allocated %d bytes before refusing", tc.src, grew)
		}
	}
}

func TestParseNumbering(t *testing.T) {
	g := graph.Petersen()
	for _, src := range []string{"canonical", "", "random:7", "consistent:7", "symmetric"} {
		p, err := ParseNumbering(g, src)
		if err != nil {
			t.Errorf("ParseNumbering(%q): %v", src, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ParseNumbering(%q) invalid: %v", src, err)
		}
	}
	if p, err := ParseNumbering(g, "consistent:9"); err != nil || !p.IsConsistent() {
		t.Error("consistent numbering not consistent")
	}
}

func TestParseNumberingErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := ParseNumbering(g, "symmetric"); err == nil {
		t.Error("symmetric numbering of an irregular graph accepted")
	}
	if _, err := ParseNumbering(g, "bogus"); err == nil {
		t.Error("bogus numbering accepted")
	}
	if _, err := ParseNumbering(g, "random:zzz"); err == nil {
		t.Error("bad seed accepted")
	}
}

// TestGraphSpecsParse keeps the -list enumeration in sync with the parser:
// every advertised form (with placeholders filled in) must parse, and every
// form must have an example here.
func TestGraphSpecsParse(t *testing.T) {
	examples := map[string]string{
		"path:N":                  "path:5",
		"cycle:N":                 "cycle:5",
		"star:K":                  "star:4",
		"complete:N":              "complete:4",
		"bipartite:AxB":           "bipartite:2x3",
		"grid:RxC":                "grid:3x4",
		"torus:RxC":               "torus:3x3",
		"hypercube:D":             "hypercube:3",
		"caterpillar:SxL":         "caterpillar:3x2",
		"petersen":                "petersen",
		"fig1":                    "fig1",
		"fig9":                    "fig9",
		"witness13":               "witness13",
		"tree:N,SEED":             "tree:6,1",
		"random-regular:N,K,SEED": "random-regular:8,3,1",
		"expander:N,D,SEED":       "expander:8,4,1",
		"pa:N,M,SEED":             "pa:8,2,1",
	}
	forms := GraphSpecs()
	if len(forms) != len(examples) {
		t.Fatalf("GraphSpecs lists %d forms, examples cover %d", len(forms), len(examples))
	}
	for _, form := range forms {
		ex, ok := examples[form]
		if !ok {
			t.Errorf("form %q has no example", form)
			continue
		}
		if _, err := ParseGraph(ex); err != nil {
			t.Errorf("advertised form %q: example %q does not parse: %v", form, ex, err)
		}
	}
	for _, form := range NumberingSpecs() {
		ex := map[string]string{
			"canonical": "canonical", "random:SEED": "random:7",
			"consistent:SEED": "consistent:7", "symmetric": "symmetric",
		}[form]
		if ex == "" {
			t.Errorf("numbering form %q has no example", form)
			continue
		}
		g, _ := ParseGraph("cycle:6")
		if _, err := ParseNumbering(g, ex); err != nil {
			t.Errorf("advertised numbering %q: example %q does not parse: %v", form, ex, err)
		}
	}
}
