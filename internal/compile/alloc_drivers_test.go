package compile

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): the driver runs the compiled δ's
// diamond kernel on both of its paths, the read at one in-port of a
// ⟨(i,j)⟩ diamond and the count across the inbox of a ⟨(∗,j)⟩≥k diamond,
// over inboxes of messages that μ emitted. The kernel promises zero
// allocations whatever the inbox.

import (
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
)

var weakvetAllocDrivers = map[string]func() func(){
	"(*diamondRead).eval": func() func() {
		const delta = 12
		var reads []*diamondRead
		var inboxes [][]machine.Message
		for _, src := range []string{"<2,3> (q1 | q3)", "<*,3>=2 (q1 | q3)"} {
			c, err := newCompiled(logic.MustParse(src), delta)
			if err != nil {
				panic(err)
			}
			inbox := make([]machine.Message, delta)
			for i := range inbox {
				inbox[i] = c.send(c.initVals(1+i%4), 1+i%4)
			}
			for i := range c.reads {
				if _, ok := c.subs[i].(logic.Diamond); ok {
					reads = append(reads, &c.reads[i])
					inboxes = append(inboxes, inbox)
				}
			}
		}
		return func() {
			for i, r := range reads {
				r.eval(inboxes[i])
			}
		}
	},
}
