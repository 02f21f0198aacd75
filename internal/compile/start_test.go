package compile

import (
	"reflect"
	"testing"

	"weakmodels/internal/analysis/allocgen"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
)

// startSubject is a compiled machine together with the compiled formula
// and the settle function it was built from, which give each degree's
// start computed afresh.
type startSubject struct {
	m      machine.Machine
	c      *compiled
	settle func(vals []Tri) fmState
}

func startSubjects(t *testing.T, delta int) []startSubject {
	t.Helper()
	var subjects []startSubject
	for _, src := range []string{
		"q1",                       // settled at the start
		"<*,*> q1",                 // one named degree
		"<*,*>=2 (q2 | !q5) & q9",  // q9 names no degree ≤ Δ
		"<*,3> (q3 & !q0) | p",     // q0 and p name none
		"<2,1> (q4 | q04)",         // q04 is not q4
		"!(<*,*> (<*,*> q6)) | q6", // Δ itself
	} {
		f := logic.MustParse(src)
		m, _, err := MachineFromFormula(f, delta)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		c, err := newCompiled(f, delta)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, startSubject{m, c, c.settleRoot})
	}
	formulas := map[machine.Output]logic.Formula{
		"leaf": logic.MustParse("q1"),
		"near": logic.MustParse("!q1 & <*,*> q1"),
		"hub":  logic.MustParse("<*,*>=3 q3"),
	}
	m, _, err := MachineFromFormulas(formulas, delta)
	if err != nil {
		t.Fatal(err)
	}
	c, decide, err := compileTuple(formulas, delta)
	if err != nil {
		t.Fatal(err)
	}
	return append(subjects, startSubject{m, c, decide})
}

// TestStartTable checks that a compiled machine's Init, which reads a
// per-degree table for degrees 0..Δ, returns the state computed afresh
// for every degree, in and out of the table.
func TestStartTable(t *testing.T) {
	const delta = 6
	for _, s := range startSubjects(t, delta) {
		for deg := 0; deg <= delta+3; deg++ {
			if got, want := s.m.Init(deg), machine.State(s.settle(s.c.initVals(deg))); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Init(%d) = %#v, want %#v", s.m.Name(), deg, got, want)
			}
		}
	}
}

// TestStartTableSharedStateSurvivesStep steps a node of a degree that no
// proposition names, so it starts from the state all such degrees share,
// with an inbox that settles the diamond, and checks that the table entry
// is unchanged afterwards.
func TestStartTableSharedStateSurvivesStep(t *testing.T) {
	const delta = 6
	c, err := newCompiled(logic.MustParse("<*,*> q1"), delta)
	if err != nil {
		t.Fatal(err)
	}
	m := c.machine("shared", c.settleRoot)
	fresh := machine.State(c.settleRoot(c.initVals(4)))
	if !reflect.DeepEqual(m.Init(4), m.Init(5)) {
		t.Fatalf("degrees 4 and 5 start apart: %#v, %#v", m.Init(4), m.Init(5))
	}
	leaf := m.Send(m.Init(1), 1)
	next := m.Step(m.Init(4), []machine.Message{leaf, leaf, leaf, leaf})
	if out, done := m.Halted(next); !done || out != "1" {
		t.Fatalf("step from the shared start: output %q, halted %v; want \"1\", true", out, done)
	}
	for _, deg := range []int{0, 4, 5} {
		if got := m.Init(deg); !reflect.DeepEqual(got, fresh) {
			t.Errorf("after a step, Init(%d) = %#v, want %#v", deg, got, fresh)
		}
	}
}

// TestStartTableAllocationFree checks that a compiled machine's Init
// allocates nothing for a degree in [0, Δ].
func TestStartTableAllocationFree(t *testing.T) {
	if allocgen.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const delta = 6
	for _, s := range startSubjects(t, delta) {
		var sink machine.State
		for deg := 0; deg <= delta; deg++ {
			if got := testing.AllocsPerRun(100, func() { sink = s.m.Init(deg) }); got != 0 {
				t.Errorf("%s: Init(%d) makes %.1f allocations, want 0", s.m.Name(), deg, got)
			}
		}
		_ = sink
	}
}
