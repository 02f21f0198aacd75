package algorithms

import (
	"math/rand"
	"testing"

	"weakmodels/internal/analysis/allocgen"
	"weakmodels/internal/engine"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/problems"
)

func TestMaxDegreeWithinSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	graphs := []*graph.Graph{
		graph.Path(7), graph.Star(4), graph.Caterpillar(4, 2),
		graph.Petersen(), graph.Figure1Graph(),
		graph.DisjointUnion(graph.Star(5), graph.Cycle(4)),
	}
	for k := 0; k <= 3; k++ {
		problem := problems.MaxDegreeWithin{K: k}
		for _, g := range graphs {
			m := MaxDegreeWithin(g.MaxDegree(), k)
			for trial := 0; trial < 3; trial++ {
				res, err := engine.Run(m, port.Random(g, rng), engine.Options{})
				if err != nil {
					t.Fatalf("k=%d %v: %v", k, g, err)
				}
				if err := problem.Validate(g, res.Output); err != nil {
					t.Fatalf("k=%d %v: %v", k, g, err)
				}
				if res.Rounds != k {
					t.Errorf("k=%d: ran %d rounds", k, res.Rounds)
				}
			}
		}
	}
}

func TestMaxDegreeWithinInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	m := MaxDegreeWithin(3, 2)
	if err := machine.CheckStepInvariance(m, m.Init(3), []machine.Message{"3", "1", "3"}, rng); err != nil {
		t.Error(err)
	}
	if err := machine.CheckSendInvariance(m, []machine.State{m.Init(2)}, 3); err != nil {
		t.Error(err)
	}
}

func TestMaxDegreeWithinValidatorRejects(t *testing.T) {
	g := graph.Star(3)
	problem := problems.MaxDegreeWithin{K: 1}
	bad := []machine.Output{"3", "3", "3", "junk"}
	if err := problem.Validate(g, bad); err == nil {
		t.Error("junk output accepted")
	}
	wrong := []machine.Output{"3", "3", "3", "1"}
	if err := problem.Validate(g, wrong); err == nil {
		t.Error("wrong maximum accepted")
	}
}

// TestMaxDegreeWithinAllocations pins what the machine allocates at
// sync-gossip's Δ = 175: nothing in μ or Halted, and exactly one
// allocation in δ, the state boxed into machine.State, which is any.
func TestMaxDegreeWithinAllocations(t *testing.T) {
	if allocgen.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const delta = 175
	m := MaxDegreeWithin(delta, 16)
	s := m.Init(delta) // the hub: its value is past strconv's small-int cache
	inbox := make([]machine.Message, delta)
	for i := range inbox {
		inbox[i] = m.Send(m.Init(i+1), 1)
	}
	inbox = machine.CanonicalInbox(machine.RecvMultiset, inbox)
	for _, c := range []struct {
		name string
		want float64
		call func()
	}{
		{"μ", 0, func() { m.Send(s, 1) }},
		{"Halted", 0, func() { m.Halted(s) }},
		{"δ", 1, func() { m.Step(s, inbox) }},
	} {
		if got := testing.AllocsPerRun(100, c.call); got != c.want {
			t.Errorf("%s: %.1f allocs per call, want %.0f", c.name, got, c.want)
		}
	}
}
