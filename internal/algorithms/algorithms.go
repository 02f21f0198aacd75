// Package algorithms implements the concrete distributed algorithms the
// paper uses — the positive sides of every separation, plus the vertex-cover
// algorithm motivating the study of class MB (Section 3.3).
//
//	LeafElect     SV(1)  Theorem 11: elects a leaf in a star.
//	OddOdd        MB(1)  Theorem 13: marks nodes with an odd number of
//	                     odd-degree neighbours.
//	LocalTypeMax  VVc(1) Theorem 17: outputs 1 at local-type maxima; breaks
//	                     symmetry on 𝒢 under every consistent numbering.
//	EvenDegree    SB(1)  zero-round even-degree decision.
//	VertexCover2  MB     broadcast-only fractional-matching 2-approximation
//	                     (substitution for Åstrand–Suomela [3]; DESIGN.md §6).
//	MaxDegreeWithin
//	              MB(k)  gossips the maximum degree within distance k;
//	                     halts after k rounds.
//	MaxConsensus  MB     gossips the maximum degree forever: it never halts
//	                     and settles after diameter-many rounds, the
//	                     async executor's fixpoint-detection workload.
//
// A machine's message set is fixed once Δ is (§1.1), and the machines
// here build it once: μ and Halted hand out strings from a table made
// when the machine is constructed (intAlphabet, for the integers
// 0..hi), and δ and the message guard decode them with an
// allocation-free digit loop (decodeInt). Nothing is formatted per
// message, and only what the loop cannot read goes through strconv.
// The bytes are those term.Int(n).Encode() gives, so journals and
// recordings stay as they were. New machines follow the same
// convention. Outside it are VertexCover2, whose offers are exact
// rationals, a set that Δ does not fix, and LocalTypeMax, which sends
// its port numbers from a table but reads them, once per in-port per
// run, and its type tuples as parsed terms.
package algorithms

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"weakmodels/internal/machine"
	"weakmodels/internal/term"
)

// LeafElect is the Theorem 11 algorithm (class SV): every node sends its
// out-port number i to port i; a node outputs 1 iff it has degree 1 and its
// received set is {1}. On a k-star exactly the leaf reached by the centre's
// port 1 is elected.
func LeafElect(delta int) machine.Machine {
	type st struct {
		Deg  int
		Done bool
		Out  machine.Output
	}
	ports := newIntAlphabet(delta)
	one := ports.encode(1)
	return &machine.Func{
		MachineName:  "leaf-elect",
		MachineClass: machine.ClassSV,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return st{Deg: deg} },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, p int) machine.Message {
			return ports.encode(p)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			out := machine.Output("0")
			if x.Deg == 1 && len(inbox) == 1 && inbox[0] == one {
				out = "1"
			}
			return st{Deg: x.Deg, Done: true, Out: out}
		},
	}
}

// OddOdd is the Theorem 13 algorithm (class MB): broadcast the parity of
// the degree; output 1 iff an odd number of received messages indicate odd
// parity. One round.
func OddOdd(delta int) machine.Machine {
	type st struct {
		Deg  int
		Done bool
		Out  machine.Output
	}
	parity := newIntAlphabet(1)
	one := parity.encode(1)
	return &machine.Func{
		MachineName:  "odd-odd",
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return st{Deg: deg} },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, _ int) machine.Message {
			return parity.encode(s.(st).Deg % 2)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			odd := 0
			for _, m := range inbox {
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

// EvenDegree decides "my degree is even" in zero rounds (class SB).
func EvenDegree(delta int) machine.Machine {
	return &machine.Func{
		MachineName:  "even-degree",
		MachineClass: machine.ClassSB,
		MaxDeg:       delta,
		InitFunc:     func(deg int) machine.State { return deg },
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			if s.(int)%2 == 0 {
				return "1", true
			}
			return "0", true
		},
		SendFunc: func(machine.State, int) machine.Message { return machine.NoMessage },
		StepFunc: func(s machine.State, _ []machine.Message) machine.State { return s },
	}
}

// LocalTypeMax is the Theorem 17 algorithm (class VV, correct assuming
// consistency — VVc): round 1 learns the local type t(v) (the far-end port
// number of each out-port); round 2 exchanges types; a node outputs 1 iff
// its type is ≥ every neighbour's type in lexicographic order.
func LocalTypeMax(delta int) machine.Machine {
	type st struct {
		Deg   int
		Round int
		Type  string // encoded local type after round 1
		Done  bool
		Out   machine.Output
	}
	encodeType := func(t []int64) string {
		kids := make([]term.Term, len(t))
		for i, x := range t {
			kids[i] = term.Int(x)
		}
		return term.Tuple(kids...).Encode()
	}
	ports := newIntAlphabet(delta)
	return &machine.Func{
		MachineName:  "local-type-max",
		MachineClass: machine.ClassVV,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			s := st{Deg: deg}
			if deg == 0 {
				// Isolated node: trivially a local maximum.
				s.Done = true
				s.Out = "1"
			}
			return s
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(st)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, p int) machine.Message {
			x := s.(st)
			if x.Round == 0 {
				// Tell the far end which of our ports feeds it.
				return ports.encode(p)
			}
			return machine.Message(x.Type)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(st)
			if x.Round == 0 {
				// Under a consistent numbering, the payload received at
				// in-port i is exactly t(v)_i.
				tvec := make([]int64, x.Deg)
				for i, m := range inbox {
					t, err := term.Parse(string(m))
					if err != nil {
						panic(fmt.Sprintf("algorithms: bad type message %q", m))
					}
					tvec[i] = t.IntVal()
				}
				return st{Deg: x.Deg, Round: 1, Type: encodeType(tvec)}
			}
			// Types compare lexicographically as terms. The own type is
			// parsed once, after the first neighbour's, so a malformed
			// message or type panics exactly where it always has.
			out := machine.Output("1")
			var own term.Term
			for _, m := range inbox {
				t := term.MustParse(m)
				if own.IsZero() {
					own = term.MustParse(x.Type)
				}
				if term.Compare(t, own) > 0 {
					out = "0"
					break
				}
			}
			return st{Deg: x.Deg, Round: 2, Type: x.Type, Done: true, Out: out}
		},
	}
}

// vcState is the VertexCover2 per-node state. Rationals are stored as
// canonical "a/b" strings so states stay plain values.
type vcState struct {
	Deg      int
	Residual string // remaining fractional capacity, 0 ≤ r ≤ 1
	Offer    string // offer broadcast this round (residual / active-degree)
	Done     bool
	Out      machine.Output
}

// VertexCover2 is a broadcast-only (class MB) deterministic vertex-cover
// algorithm with certified approximation factor 2, standing in for the
// Åstrand–Suomela MB(1) algorithm (substitution documented in DESIGN.md §6).
//
// Every unsaturated node broadcasts the offer r/d (remaining capacity over
// currently-active neighbour count, exact rational arithmetic). Each active
// edge receives min of its endpoints' offers; saturated nodes (r = 0) enter
// the cover and halt; nodes with no active neighbours left halt outside the
// cover. The increments form a fractional matching, so the saturated set is
// a vertex cover of size ≤ 2·OPT.
func VertexCover2(delta int) machine.Machine {
	return &machine.Func{
		MachineName:  "vertex-cover-2approx",
		MachineClass: machine.ClassMB,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			if deg == 0 {
				return vcState{Deg: 0, Done: true, Out: "0"}
			}
			one := big.NewRat(1, 1)
			offer := big.NewRat(1, int64(deg))
			return vcState{Deg: deg, Residual: one.RatString(), Offer: offer.RatString()}
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(vcState)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, _ int) machine.Message {
			x := s.(vcState)
			return machine.Message("off:" + x.Offer)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			x := s.(vcState)
			myOffer := parseRat(x.Offer)
			residual := parseRat(x.Residual)
			active := 0
			for _, m := range inbox {
				o, ok := parseOffer(m)
				if !ok {
					continue // m0 or saturated marker: neighbour inactive
				}
				active++
				inc := o
				if myOffer.Cmp(o) < 0 {
					inc = myOffer
				}
				residual.Sub(residual, inc)
			}
			if residual.Sign() <= 0 {
				// Saturated: join the cover.
				return vcState{Deg: x.Deg, Done: true, Out: "1"}
			}
			if active == 0 {
				// No live edges left; every incident edge is covered by a
				// saturated neighbour.
				return vcState{Deg: x.Deg, Done: true, Out: "0"}
			}
			offer := new(big.Rat).Quo(residual, big.NewRat(int64(active), 1))
			return vcState{
				Deg:      x.Deg,
				Residual: residual.RatString(),
				Offer:    offer.RatString(),
			}
		},
	}
}

func parseRat(s string) *big.Rat {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic(fmt.Sprintf("algorithms: bad rational %q", s))
	}
	return r
}

func parseOffer(m machine.Message) (*big.Rat, bool) {
	s := string(m)
	if !strings.HasPrefix(s, "off:") {
		return nil, false
	}
	return parseRat(strings.TrimPrefix(s, "off:")), true
}

// Registry lists every algorithm constructor by name, for the CLIs.
func Registry() map[string]func(delta int) machine.Machine {
	return map[string]func(int) machine.Machine{
		"leaf-elect":     LeafElect,
		"odd-odd":        OddOdd,
		"even-degree":    EvenDegree,
		"local-type-max": LocalTypeMax,
		"max-consensus":  MaxConsensus,
		"vertex-cover":   VertexCover2,
	}
}

// RegistryNames returns the sorted algorithm names.
func RegistryNames() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
