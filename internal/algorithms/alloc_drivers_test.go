package algorithms

// alloc_drivers_test.go backs the generated TestWeakvetAllocPins (see
// zz_generated_weakvet_alloc_test.go): one driver per //weakvet:noalloc
// function, keyed by receiver-qualified name. Each driver does its setup
// once and returns the hot closure that testing.AllocsPerRun measures.

// weakvetAllocDelta is the Δ of the driven alphabets: sync-gossip's
// PA(5000, 3) graph has maximum degree 175.
const weakvetAllocDelta = 175

// weakvetAllocInputs is every message of the alphabet followed by
// strings decodeInt and the guard must reject, or accept off the digit
// loop, without allocating: out of range, signed, zero-padded, empty,
// a bare sign and garbage.
func weakvetAllocInputs() []string {
	a := newIntAlphabet(weakvetAllocDelta)
	in := append([]string(nil), a.strs...)
	return append(in, "176", "-1", "+7", "-0", "007", "", "+", "-", "7a",
		"\xff", "999999999999999999", "t(1,2)")
}

var weakvetAllocDrivers = map[string]func() func(){
	"(*intAlphabet).encode": func() func() {
		a := newIntAlphabet(weakvetAllocDelta)
		return func() {
			for n := 0; n <= weakvetAllocDelta; n++ {
				a.encode(n)
			}
		}
	},
	"(*intAlphabet).valid": func() func() {
		a, in := newIntAlphabet(weakvetAllocDelta), weakvetAllocInputs()
		return func() {
			for _, m := range in {
				a.valid(m)
			}
		}
	},
	"decodeInt": func() func() {
		in := weakvetAllocInputs()
		return func() {
			for _, m := range in {
				decodeInt(m)
			}
		}
	},
}
