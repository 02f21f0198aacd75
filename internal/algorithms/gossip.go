package algorithms

import (
	"fmt"
	"strconv"

	"weakmodels/internal/machine"
)

// MaxDegreeWithin computes, at every node, the maximum degree occurring
// within distance k — a semilattice gossip that works in class MB: max is
// insensitive to both message order and multiplicity (it would even be an
// SB algorithm, but we declare MB to exercise the multiset path; the
// invariance checker verifies it either way). Exactly k rounds.
func MaxDegreeWithin(delta, k int) machine.Machine {
	type st struct {
		Best  int
		Round int
		Done  bool
	}
	ints := newIntAlphabet(delta)
	return &machine.Func{
		MachineName:  fmt.Sprintf("max-degree-within-%d", k),
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			return st{Best: deg, Done: k == 0}
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return ints.encode(x.Best), x.Done
		},
		SendFunc: func(s machine.State, _ int) machine.Message {
			return ints.encode(s.(st).Best)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			for _, m := range inbox {
				if m == machine.NoMessage {
					continue
				}
				n, ok := decodeInt(m)
				if !ok {
					panic(fmt.Sprintf("algorithms: bad gossip message %q", m))
				}
				if n > x.Best {
					x.Best = n
				}
			}
			x.Round++
			x.Done = x.Round >= k
			return x
		},
		ValidFunc: ints.valid,
	}
}

// MaxConsensus broadcasts the largest value seen so far, seeded with the
// node degree. It never halts: on a connected graph it stabilises at the
// global maximum after diameter-many rounds, making it the canonical
// workload for the async executor's fixpoint detection (the synchronous
// executors can only give up at the round budget). It is in the Registry
// as "max-consensus", its one machine that never halts.
//
// It is also the canonical gossip of the self-stabilisation harness: max
// is a semilattice join, so omitted (m0) and duplicated messages only
// delay information, and a crash-reset node reboots into its degree —
// restoring its own contribution to the maximum — and re-learns the rest
// from neighbours that never stop broadcasting. m0 entries are skipped:
// under fault plans (and next to crashed neighbours) silence is a valid
// inbox entry. The message alphabet is declared as [0, Δ] through
// ValidFunc: corrupted payloads outside it arrive as m0, and since every
// legitimate value is ≤ Δ — the global maximum itself — an in-range lie
// is washed out by the monotone convergence to Δ.
func MaxConsensus(delta int) machine.Machine {
	ints := newIntAlphabet(delta)
	return &machine.Func{
		MachineName:  "max-consensus",
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return deg },
		HaltedFunc:   func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc: func(s machine.State, _ int) machine.Message {
			return ints.encode(s.(int))
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			best := s.(int)
			for _, msg := range inbox {
				if msg == machine.NoMessage {
					continue
				}
				v, ok := decodeInt(msg)
				if !ok {
					_, err := strconv.Atoi(msg) // the panic value it always was
					panic(err)
				}
				if v > best {
					best = v
				}
			}
			return best
		},
		ValidFunc: ints.valid,
	}
}
