package schedule

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): one driver per //weakvet:noalloc
// function, keyed by receiver-qualified name. Each driver does its setup
// once and returns the hot closure that testing.AllocsPerRun measures.

var weakvetAllocDrivers = map[string]func() func(){
	"(*randomSubset).Step": func() func() {
		const nodes, links = 500, 3000
		s := RandomSubset(3, 0.5)
		s.Begin(nodes, links)
		view := newFakeView(nodes, links)
		for l := range view.inFlight {
			view.inFlight[l] = 1 + l%3
		}
		dec := NewDecision(nodes, links)
		t := 0
		return func() {
			t++
			dec.Reset()
			s.Step(t, view, dec)
		}
	},
}
