// Code generated by weakvet-allocgen from //weakvet:noalloc annotations. DO NOT EDIT.
//
// Regenerate: go run weakmodels/internal/analysis/allocgen/gen <pkg-dir>

package algorithms

import (
	"testing"

	"weakmodels/internal/analysis/allocgen"
)

// weakvetAllocTargets lists every //weakvet:noalloc function of this
// package with its committed allocations-per-call budget.
var weakvetAllocTargets = []struct {
	name   string
	budget int
}{
	{"(*intAlphabet).encode", 0},
	{"(*intAlphabet).valid", 0},
	{"decodeInt", 0},
}

// TestWeakvetAllocPins measures each annotated function through its
// hand-written driver in weakvetAllocDrivers and fails if it exceeds
// its budget. Annotating a new function //weakvet:noalloc and
// regenerating makes this test demand a driver for it.
func TestWeakvetAllocPins(t *testing.T) {
	if allocgen.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, tgt := range weakvetAllocTargets {
		t.Run(tgt.name, func(t *testing.T) {
			setup, ok := weakvetAllocDrivers[tgt.name]
			if !ok {
				t.Fatalf("no driver in weakvetAllocDrivers for %s: every //weakvet:noalloc function needs an AllocsPerRun pin", tgt.name)
			}
			fn := setup()
			fn() // reach steady state outside the measurement
			if got := testing.AllocsPerRun(100, fn); got > float64(tgt.budget) {
				t.Errorf("%s: %.1f allocs/op, budget %d", tgt.name, got, tgt.budget)
			}
		})
	}
}
