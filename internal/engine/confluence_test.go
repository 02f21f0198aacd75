package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/graph"
	"weakmodels/internal/machine"
	"weakmodels/internal/port"
	"weakmodels/internal/schedule"
)

// TestAsyncConfluenceAtScale is confluence as a seeded sweep at n=10⁴: the
// k-th firing of v computes the synchronous x_v^k whatever the schedule
// does, so under every fair schedule a halting machine must reach exactly
// the sequential executor's outputs, and no run may stop at a fixpoint.
// The graphs are PA(10⁴, 3) and a 5-regular expander(10⁴), both with
// random port numberings; the machines are MaxDegreeWithin(Δ, 8) and the
// registry's halting algorithms. vertex-cover-2approx runs only on the
// expander: its round count grows with Δ, and PA's hub has Δ in the
// hundreds. Roundrobin stays on the small graphs of
// TestAsyncFairSchedulesReachSynchronousOutputs, since it needs n steps
// per round. Under -short only the PA graph runs.
func TestAsyncConfluenceAtScale(t *testing.T) {
	const n = 10_000
	families := []struct {
		name          string
		build         func() (*graph.Graph, error)
		boundedDegree bool
	}{
		{"pa", func() (*graph.Graph, error) { return graph.PreferentialAttachment(n, 3, 21) }, false},
		{"expander", func() (*graph.Graph, error) { return graph.Expander(n, 5, 21) }, true},
	}
	if testing.Short() {
		families = families[:1]
	}
	for fi, fam := range families {
		g, err := fam.build()
		if err != nil {
			t.Fatal(err)
		}
		p := port.Random(g, rand.New(rand.NewSource(int64(40+fi))))
		delta := g.MaxDegree()
		machines := []machine.Machine{algorithms.MaxDegreeWithin(delta, 8)}
		for _, name := range algorithms.RegistryNames() {
			m := algorithms.Registry()[name](delta)
			switch {
			case m.Name() == "max-consensus":
				continue // stabilises without halting
			case m.Name() == "vertex-cover-2approx" && !fam.boundedDegree:
				continue
			}
			machines = append(machines, m)
		}
		for _, m := range machines {
			seq, err := Run(m, p, Options{})
			if err != nil {
				t.Fatalf("%s on %s: seq: %v", m.Name(), fam.name, err)
			}
			for _, spec := range []string{"random:0.4", "staleness:2", "adversary:3"} {
				label := fmt.Sprintf("%s on %s schedule=%s", m.Name(), fam.name, spec)
				sched, err := schedule.Parse(spec, int64(60+fi))
				if err != nil {
					t.Fatal(err)
				}
				async, err := Run(m, p, Options{Executor: ExecutorAsync, Schedule: sched})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(seq.Output, async.Output) {
					t.Fatalf("%s: outputs differ from seq's", label)
				}
				if async.Fixpoint {
					t.Fatalf("%s: spurious fixpoint on a halting run", label)
				}
			}
		}
	}
}
