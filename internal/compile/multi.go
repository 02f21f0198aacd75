package compile

import (
	"fmt"
	"sort"

	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
)

// MachineFromFormulas compiles a *tuple* of formulas into one machine —
// the paper's remark that non-binary outputs "can be handled by using
// tuples of formulas" (Section 4.3). The machine evaluates every formula
// simultaneously (one shared run of md_max rounds) and outputs the label
// of the first formula, in the given label order, that holds at the node;
// fallback is the label of the empty string if no formula holds.
//
// All formulas must live in the same model variant; the machine's class is
// the weakest class admitting all their fragments.
func MachineFromFormulas(formulas map[machine.Output]logic.Formula, delta int) (machine.Machine, kripke.Variant, error) {
	c, decide, err := compileTuple(formulas, delta)
	if err != nil {
		return nil, 0, err
	}
	return c.machine(fmt.Sprintf("compiled-tuple[%d formulas]", len(formulas)), decide), c.variant, nil
}

// compileTuple compiles the disjunction of the formulas and returns it
// with decide, which halts a node once every formula is decided, on the
// first label, in label order, whose formula holds.
func compileTuple(formulas map[machine.Output]logic.Formula, delta int) (*compiled, func(vals []Tri) fmState, error) {
	if len(formulas) == 0 {
		return nil, nil, fmt.Errorf("compile: no formulas")
	}
	labels := make([]machine.Output, 0, len(formulas))
	for l := range formulas {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	// Compile the disjunction of all the formulas: it fixes the variant and
	// the class, and every formula is one of its subformulas, so one
	// compiled machine, with one flat message layout and one guard,
	// evaluates them all. Each label reads its formula's value off the
	// shared assignment.
	var union logic.Formula = logic.Bot{}
	for _, l := range labels {
		union = logic.Or{L: union, R: formulas[l]}
	}
	c, err := newCompiled(union, delta)
	if err != nil {
		return nil, nil, err
	}
	roots := make([]int, len(labels))
	for i, l := range labels {
		roots[i] = c.index[formulas[l].String()]
	}
	decide := func(vals []Tri) fmState {
		s := fmState{Vals: vals}
		for _, r := range roots {
			if vals[r] == TriU {
				return s
			}
		}
		s.Done = true
		for i, r := range roots {
			if vals[r] == TriTrue {
				s.Out = labels[i]
				break
			}
		}
		return s
	}
	return c, decide, nil
}
