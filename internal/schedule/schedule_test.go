package schedule

import (
	"math/rand"
	"strings"
	"testing"
)

// fakeView is a hand-set View for driving generators without an engine.
type fakeView struct {
	nodes, links int
	fires        []int64
	halted       []bool
	inFlight     []int
	oldestBorn   []int
}

func (f *fakeView) Nodes() int           { return f.nodes }
func (f *fakeView) Links() int           { return f.links }
func (f *fakeView) Fires(v int) int64    { return f.fires[v] }
func (f *fakeView) Halted(v int) bool    { return f.halted[v] }
func (f *fakeView) InFlight(l int) int   { return f.inFlight[l] }
func (f *fakeView) OldestBorn(l int) int { return f.oldestBorn[l] }

func newFakeView(nodes, links int) *fakeView {
	f := &fakeView{
		nodes: nodes, links: links,
		fires:      make([]int64, nodes),
		halted:     make([]bool, nodes),
		inFlight:   make([]int, links),
		oldestBorn: make([]int, links),
	}
	for l := range f.oldestBorn {
		f.oldestBorn[l] = -1
	}
	return f
}

func step(s Schedule, t int, view View, dec *Decision) {
	dec.Reset()
	s.Step(t, view, dec)
}

func TestSynchronousActivatesAndDeliversAll(t *testing.T) {
	s := Synchronous()
	s.Begin(4, 8)
	dec := NewDecision(4, 8)
	step(s, 1, newFakeView(4, 8), dec)
	if !dec.ActivateAll || !dec.DeliverAll {
		t.Fatalf("sync decision = %+v, want ActivateAll and DeliverAll", dec)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	s := RoundRobin()
	s.Begin(3, 6)
	view := newFakeView(3, 6)
	dec := NewDecision(3, 6)
	for tt := 1; tt <= 7; tt++ {
		step(s, tt, view, dec)
		if !dec.DeliverAll {
			t.Fatalf("step %d: roundrobin must deliver all", tt)
		}
		want := (tt - 1) % 3
		for v := 0; v < 3; v++ {
			if dec.Activate[v] != (v == want) {
				t.Fatalf("step %d: Activate = %v, want only node %d", tt, dec.Activate, want)
			}
		}
	}
}

func TestRandomSubsetSeededDeterminism(t *testing.T) {
	view := newFakeView(10, 20)
	for l := range view.inFlight {
		view.inFlight[l] = 2
	}
	run := func() [][]bool {
		s := RandomSubset(99, 0.5)
		s.Begin(10, 20)
		dec := NewDecision(10, 20)
		var got [][]bool
		for tt := 1; tt <= 8; tt++ {
			step(s, tt, view, dec)
			got = append(got, append([]bool(nil), dec.Activate...))
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		for v := range a[i] {
			if a[i][v] != b[i][v] {
				t.Fatalf("step %d node %d: same seed diverged", i+1, v)
			}
		}
	}
}

// RandomSubset must decide exactly what the per-element loop over a
// rand.New(rand.NewSource(seed)) stream decides — one Float64 < p per
// node, then one per link, delivering a picked link's whole queue — on
// link counts around the block size of its pick compaction.
func TestRandomSubsetMatchesPerElementCoins(t *testing.T) {
	const nodes, seed, p = 7, 31, 0.4
	for _, links := range []int{0, 1, 255, 256, 257, 700} {
		view := newFakeView(nodes, links)
		for l := range view.inFlight {
			view.inFlight[l] = l % 4
		}
		s := RandomSubset(seed, p)
		s.Begin(nodes, links)
		dec := NewDecision(nodes, links)
		ref := rand.New(rand.NewSource(seed))
		for tt := 1; tt <= 5; tt++ {
			step(s, tt, view, dec)
			for v := 0; v < nodes; v++ {
				if want := ref.Float64() < p; dec.Activate[v] != want {
					t.Fatalf("links %d step %d: Activate[%d] = %v, want %v", links, tt, v, dec.Activate[v], want)
				}
			}
			for l := 0; l < links; l++ {
				want := int32(0)
				if ref.Float64() < p {
					want = int32(view.inFlight[l])
				}
				if dec.Deliver[l] != want {
					t.Fatalf("links %d step %d: Deliver[%d] = %d, want %d", links, tt, l, dec.Deliver[l], want)
				}
			}
		}
	}
}

func TestBoundedStalenessHardCap(t *testing.T) {
	s := BoundedStaleness(7, 2)
	s.Begin(3, 6)
	view := newFakeView(3, 6)
	view.fires = []int64{5, 3, 4} // node 0 is at the cap (min=3, k=2)
	dec := NewDecision(3, 6)
	for tt := 1; tt <= 20; tt++ {
		step(s, tt, view, dec)
		if dec.Activate[0] {
			t.Fatalf("step %d: node at lag cap was activated", tt)
		}
		if !dec.Activate[1] {
			t.Fatalf("step %d: slowest node was not activated", tt)
		}
	}
}

func TestAdversaryRespectsLinkDelays(t *testing.T) {
	const fair = 5
	s := Adversary(3, fair)
	s.Begin(2, 4)
	view := newFakeView(2, 4)
	dec := NewDecision(2, 4)
	// A message born at step 1 must be released by step 1+fair on every link,
	// and never before one full step has passed.
	for l := range view.inFlight {
		view.inFlight[l] = 1
		view.oldestBorn[l] = 1
	}
	released := make([]bool, 4)
	for tt := 1; tt <= 1+fair; tt++ {
		step(s, tt, view, dec)
		for l := range released {
			if dec.Deliver[l] > 0 {
				if tt == 1 {
					t.Fatalf("link %d released with age 0", l)
				}
				released[l] = true
			}
		}
	}
	for l, ok := range released {
		if !ok {
			t.Fatalf("link %d not released within the fairness bound", l)
		}
	}
	// Every node must be activated at least once every fair steps.
	active := make([]bool, 2)
	for tt := 10; tt < 10+fair; tt++ {
		step(s, tt, view, dec)
		for v := range active {
			active[v] = active[v] || dec.Activate[v]
		}
	}
	for v, ok := range active {
		if !ok {
			t.Fatalf("node %d not activated within the fairness bound", v)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for spec, wantName := range map[string]string{
		"sync":         "sync",
		"synchronous":  "sync",
		"":             "sync",
		"roundrobin":   "roundrobin",
		"rr":           "roundrobin",
		"random":       "random:0.5",
		"random:0.25":  "random:0.25",
		"staleness":    "staleness:2",
		"staleness:4":  "staleness:4",
		"adversary":    "adversary:4",
		"adversary:09": "adversary:9",
	} {
		s, err := Parse(spec, 1)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", spec, err)
			continue
		}
		if s.Name() != wantName {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, s.Name(), wantName)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"warp", "random:2", "random:0", "random:x",
		"staleness:0", "staleness:x", "adversary:0", "adversary:x",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	_, err := Parse("warp", 1)
	if err == nil || !strings.Contains(err.Error(), "sync") {
		t.Errorf("unknown-schedule error should list valid specs, got %v", err)
	}
}
