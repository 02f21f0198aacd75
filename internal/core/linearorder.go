package core

import (
	"fmt"
	"strings"

	"weakmodels/internal/algorithms"
	"weakmodels/internal/machine"
	"weakmodels/internal/problems"
	"weakmodels/internal/simulate"
	"weakmodels/internal/term"
)

// Collapse is a machine-checkable instance of one of the equality theorems:
// a problem solvable in the stronger class is solved in the weaker class by
// the corresponding simulation wrapper.
type Collapse struct {
	// Name identifies the theorem, e.g. "Theorem 4 (MV = SV)".
	Name string
	// Strong and Weak are the two classes proved equal.
	Strong, Weak ClassID
	// Problem and the wrapped machine builder demonstrating the collapse.
	Problem problems.Problem
	Build   func(delta int) machine.Machine
}

// Verify checks that the wrapped (weak-class) machine still solves the
// problem over the suite.
func (c *Collapse) Verify(suite Suite) error {
	if err := Solves(c.Build, c.Weak, c.Problem, suite); err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	return nil
}

// oddOddVector is the OddOdd algorithm deliberately implemented as a full
// Vector machine (it reads its inbox as a vector), used as Theorem 8 input.
func oddOddVector(delta int) machine.Machine {
	type st struct {
		Deg  int
		Done bool
		Out  machine.Output
	}
	return &machine.Func{
		MachineName:  "odd-odd-vector",
		MachineClass: machine.ClassVV,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return st{Deg: deg} },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, p int) machine.Message {
			// A genuinely port-dependent message: (parity, out-port).
			return machine.EncodeTerm(term.Tuple(
				term.Int(int64(s.(st).Deg%2)), term.Int(int64(p))))
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			odd := 0
			for _, m := range inbox {
				t, err := term.Parse(string(m))
				if err != nil {
					panic(err)
				}
				if t.At(0).IntVal() == 1 {
					odd++
				}
			}
			out := machine.Output("0")
			if odd%2 == 1 {
				out = "1"
			}
			return st{Deg: x.Deg, Done: true, Out: out}
		},
	}
}

// oddOddBroadcastVector is OddOdd as a VB machine (broadcast send, vector
// receive), used as Theorem 9 input.
func oddOddBroadcastVector(delta int) machine.Machine {
	type st struct {
		Deg  int
		Done bool
		Out  machine.Output
	}
	one := machine.EncodeTerm(term.Int(1))
	return &machine.Func{
		MachineName:  "odd-odd-vb",
		MachineClass: machine.ClassVB,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return st{Deg: deg} },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, _ int) machine.Message {
			return machine.EncodeTerm(term.Int(int64(s.(st).Deg % 2)))
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			odd := 0
			for i, m := range inbox {
				_ = i // vector position available; parity count ignores it
				if m == one {
					odd++
				}
			}
			out := machine.Output("0")
			if odd%2 == 1 {
				out = "1"
			}
			return st{Deg: x.Deg, Done: true, Out: out}
		},
	}
}

// AllCollapses returns the machine-checkable collapse evidence for the
// equalities MB = VB and SV = MV = VV.
func AllCollapses() []*Collapse {
	return []*Collapse{
		{
			Name:    "Theorem 8 (MV = VV)",
			Strong:  VV,
			Weak:    MV,
			Problem: problems.OddOdd{},
			Build: func(delta int) machine.Machine {
				m, err := simulate.MultisetFromVector(oddOddVector(delta))
				if err != nil {
					panic(err)
				}
				return m
			},
		},
		{
			Name:    "Theorem 9 (MB = VB)",
			Strong:  VB,
			Weak:    MB,
			Problem: problems.OddOdd{},
			Build: func(delta int) machine.Machine {
				m, err := simulate.MultisetFromVector(oddOddBroadcastVector(delta))
				if err != nil {
					panic(err)
				}
				return m
			},
		},
		{
			Name:    "Theorem 4 (SV = MV)",
			Strong:  MV,
			Weak:    SV,
			Problem: problems.VertexCover{Ratio: 2},
			Build: func(delta int) machine.Machine {
				m, err := simulate.SetFromMultiset(algorithms.VertexCover2(delta))
				if err != nil {
					panic(err)
				}
				return m
			},
		},
		{
			Name:    "Theorems 8+4 composed (SV = VV)",
			Strong:  VV,
			Weak:    SV,
			Problem: problems.OddOdd{},
			Build: func(delta int) machine.Machine {
				mv, err := simulate.MultisetFromVector(oddOddVector(delta))
				if err != nil {
					panic(err)
				}
				sv, err := simulate.SetFromMultiset(mv)
				if err != nil {
					panic(err)
				}
				return sv
			},
		},
	}
}

// Report is the machine-checked derivation of the linear order (Figure 5b).
type Report struct {
	// Strata lists the four distinct problem classes, weakest first.
	Strata [][]ClassID
	// Collapses and Separations carry the verified evidence.
	Collapses   []*Collapse
	Separations []*Separation
}

// Derive verifies every collapse and separation over the suite and returns
// the assembled linear order. This is the end-to-end reproduction of the
// paper's main result.
func Derive(suite Suite) (*Report, error) {
	collapses := AllCollapses()
	for _, c := range collapses {
		if err := c.Verify(suite); err != nil {
			return nil, err
		}
	}
	separations := AllSeparations()
	for _, s := range separations {
		if err := s.Verify(suite); err != nil {
			return nil, err
		}
	}
	return &Report{
		Strata: [][]ClassID{
			{SB},
			{MB, VB},
			{SV, MV, VV},
			{VVc},
		},
		Collapses:   collapses,
		Separations: separations,
	}, nil
}

// String renders the report as the paper's equation (1).
func (r *Report) String() string {
	var b strings.Builder
	parts := make([]string, len(r.Strata))
	for i, stratum := range r.Strata {
		names := make([]string, len(stratum))
		for j, c := range stratum {
			names[j] = c.String()
		}
		parts[i] = strings.Join(names, " = ")
	}
	b.WriteString(strings.Join(parts, " ⊊ "))
	return b.String()
}
