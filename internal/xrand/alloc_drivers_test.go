package xrand

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): one driver per //weakvet:noalloc
// function, keyed by receiver-qualified name. Each driver does its setup
// once and returns the hot closure that testing.AllocsPerRun measures.

// weakvetSink keeps the drawn values live without allocating.
var weakvetSink float64

var weakvetAllocDrivers = map[string]func() func(){
	"(*Source).Uint64": func() func() {
		src := NewSource(7)
		return func() { weakvetSink = float64(src.Uint64()) }
	},
	"(*Source).Float64": func() func() {
		src := NewSource(7)
		return func() { weakvetSink = src.Float64() }
	},
	"(*Source).Bools": func() func() {
		src := NewSource(7)
		mask := make([]bool, 2*regLen)
		return func() { src.Bools(mask, 0.5) }
	},
}
