package algorithms

import (
	"fmt"

	"weakmodels/internal/machine"
)

// LeafProximity decides "is there a leaf (degree-1 node) within distance k
// of me?" in class SB — beeping-style flooding that needs neither port
// numbers nor multiplicities: in each round, a node that has already seen
// the leaf frontier broadcasts a beep; hearing any beep (set semantics —
// one is as good as many) joins the frontier. Exactly k rounds, so the
// family is in SB(1) for each fixed k; the corresponding ML formula is the
// k-fold diamond ⟨∗,∗⟩…⟨∗,∗⟩ q₁ (modal depth k), which the compile tests
// cross-check.
func LeafProximity(delta, k int) machine.Machine {
	type st struct {
		Seen  bool
		Round int
		Done  bool
		Out   machine.Output
	}
	beep := machine.Message("beep")
	finish := func(x st) st {
		x.Done = true
		if x.Seen {
			x.Out = "1"
		} else {
			x.Out = "0"
		}
		return x
	}
	return &machine.Func{
		MachineName:  fmt.Sprintf("leaf-proximity-%d", k),
		MachineClass: machine.ClassSB,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			x := st{Seen: deg == 1}
			if k == 0 {
				return finish(x)
			}
			return x
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, _ int) machine.Message {
			if s.(st).Seen {
				return beep
			}
			return machine.NoMessage
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			for _, m := range inbox {
				if m == beep {
					x.Seen = true
				}
			}
			x.Round++
			if x.Round == k {
				return finish(x)
			}
			return x
		},
	}
}

// LeafProximityStab is the self-stabilising form of LeafProximity: instead
// of counting rounds, every node repeatedly recomputes its clamped
// distance to the nearest leaf as the Bellman operator
//
//	d(v) = 0 if deg(v) = 1, else min(k+1, 1 + min over received d)
//
// and never halts. The state is the int distance in [0, k+1]; "a leaf
// within distance k" is d ≤ k. Because every step recomputes d from the
// inbox alone (the previous state is discarded), the iteration converges
// to the unique fixpoint from ANY configuration: values corrupted low by
// stale messages climb by one per hop until the k+1 clamp absorbs them,
// and a crash-reset node reboots into its initial estimate and re-converges.
// Convergence takes at most k+2 fault-free rounds, after which the async
// executor's fixpoint detection stops the run. m0 entries (omission
// faults, crashed neighbours) carry no distance and are skipped — silence
// can only raise the estimate, never corrupt it. The message alphabet is
// declared as [0, k+1] through ValidFunc, so Byzantine garbage arrives as
// m0 and an in-range lie is just another transient configuration the
// recompute-from-inbox iteration converges away from. Class MB: min is
// insensitive to message order and multiplicity.
func LeafProximityStab(delta, k int) machine.Machine {
	ints := newIntAlphabet(k + 1)
	return &machine.Func{
		MachineName:  fmt.Sprintf("leaf-proximity-stab-%d", k),
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			if deg == 1 {
				return 0
			}
			return k + 1
		},
		HaltedFunc: func(machine.State) (machine.Output, bool) { return "", false },
		SendFunc: func(s machine.State, _ int) machine.Message {
			return ints.encode(s.(int))
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			// Multiset semantics keeps one entry per in-port, so the inbox
			// length is the degree and identifies leaves.
			if len(inbox) == 1 {
				return 0
			}
			d := k + 1
			for _, msg := range inbox {
				if msg == machine.NoMessage {
					continue
				}
				n, ok := decodeInt(msg)
				if !ok {
					panic(fmt.Sprintf("algorithms: bad distance message %q", msg))
				}
				if n+1 < d {
					d = n + 1
				}
			}
			return d
		},
		ValidFunc: ints.valid,
	}
}
