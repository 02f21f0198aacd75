// Package machine defines the distributed state machines of Section 1.1 —
// the tuple A = (Y, Z, z0, M, m0, μ, δ) — and the algorithm classes of
// Section 1.5: Vector, Multiset and Set receive modes crossed with per-port
// and Broadcast send modes, plus the seven problem-class identifiers of
// Section 1.6 with the stratum order proved in Section 5.
package machine

import (
	"fmt"
	"slices"

	"weakmodels/internal/term"
)

// Message is a single message: a byte string. Inboxes are canonicalised
// by comparing messages in string order, which is all the multiset and
// set receive modes need. Where a message needs structure, the convention
// is a canonical term encoding (see internal/term); the simulations of
// Theorem 8, for instance, decode terms to sort by the fixed total order
// <M. The empty string is m0.
type Message = string

// NoMessage is m0, the "no message" symbol. Halted nodes send it forever.
const NoMessage Message = ""

// Output is a local output value from the finite output set Y.
type Output = string

// RecvMode says how a machine observes its inbox (Figure 3).
type RecvMode int

// Receive modes, weakest information last.
const (
	RecvVector   RecvMode = iota + 1 // full vector indexed by in-port
	RecvMultiset                     // multiset: no in-port numbers
	RecvSet                          // set: no in-ports, no multiplicities
)

// String returns the paper's name for the mode.
func (r RecvMode) String() string {
	switch r {
	case RecvVector:
		return "Vector"
	case RecvMultiset:
		return "Multiset"
	case RecvSet:
		return "Set"
	default:
		return fmt.Sprintf("RecvMode(%d)", int(r))
	}
}

// SendMode says how a machine emits messages (Figure 4).
type SendMode int

// Send modes.
const (
	SendVector    SendMode = iota + 1 // distinct message per out-port
	SendBroadcast                     // same message to every out-port
)

// String returns the paper's name for the mode.
func (s SendMode) String() string {
	switch s {
	case SendVector:
		return "Vector"
	case SendBroadcast:
		return "Broadcast"
	default:
		return fmt.Sprintf("SendMode(%d)", int(s))
	}
}

// Class is an algorithm class: a receive mode crossed with a send mode.
// Vector = {RecvVector, SendVector}, Multiset = {RecvMultiset, SendVector},
// Set = {RecvSet, SendVector}, Broadcast = {RecvVector, SendBroadcast}, etc.
type Class struct {
	Recv RecvMode
	Send SendMode
}

// The six algorithm classes of Section 1.5/1.6 (VVc shares the Vector class
// and differs only in the consistency promise, which is a property of the
// run, not of the machine).
var (
	ClassVV = Class{Recv: RecvVector, Send: SendVector}
	ClassMV = Class{Recv: RecvMultiset, Send: SendVector}
	ClassSV = Class{Recv: RecvSet, Send: SendVector}
	ClassVB = Class{Recv: RecvVector, Send: SendBroadcast}
	ClassMB = Class{Recv: RecvMultiset, Send: SendBroadcast}
	ClassSB = Class{Recv: RecvSet, Send: SendBroadcast}
)

// String returns e.g. "Set∩Broadcast" or "Vector".
func (c Class) String() string {
	switch c {
	case ClassVV:
		return "Vector"
	case ClassMV:
		return "Multiset"
	case ClassSV:
		return "Set"
	case ClassVB:
		return "Broadcast"
	case ClassMB:
		return "Multiset∩Broadcast"
	case ClassSB:
		return "Set∩Broadcast"
	default:
		return fmt.Sprintf("{%v,%v}", c.Recv, c.Send)
	}
}

// AtLeastAsStrongAs reports whether class c has at least the information of
// class d (the trivial containments of Figure 5a: a machine of a weaker
// class is also a machine of every stronger class).
func (c Class) AtLeastAsStrongAs(d Class) bool {
	return c.Recv <= d.Recv && c.Send <= d.Send
}

// State is an opaque node state. Machines define their own state types;
// the engine only moves states around.
type State any

// Machine is a distributed state machine A = (Y, Z, z0, M, m0, μ, δ) for the
// graph family F(Δ).
//
// The engine (internal/engine) enforces class semantics structurally:
//
//   - RecvMultiset machines receive their inbox sorted into canonical order;
//   - RecvSet machines receive it sorted and deduplicated;
//   - SendBroadcast machines are asked for one message (port 1) per round
//     and that message is replicated to every port.
//
// A machine therefore physically cannot observe information its class
// forbids. Step must be a pure function of (state, inbox); Send must be a
// pure function of (state, port).
type Machine interface {
	// Name identifies the algorithm in logs and registries.
	Name() string
	// Class declares the receive/send modes.
	Class() Class
	// Delta returns the Δ this member of the family (A_1, A_2, ...) is
	// built for; the engine rejects graphs of larger maximum degree.
	Delta() int
	// Init returns z0(deg), the initial state of a node of the given degree.
	Init(deg int) State
	// Halted reports whether s is a stopping state y ∈ Y and, if so, its
	// output.
	Halted(s State) (Output, bool)
	// Send returns μ(s, port), the message sent to the 1-based out-port.
	// It is not called on halted states (halted nodes send NoMessage).
	Send(s State, port int) Message
	// Step returns δ(s, inbox). The inbox has exactly deg entries, already
	// canonicalised for the machine's receive mode. It is not called on
	// halted states.
	Step(s State, inbox []Message) State
}

// CanonicalInbox rewrites a raw in-port-ordered inbox into the view the
// receive mode allows: Vector passes through, Multiset sorts, Set sorts and
// deduplicates. The result is a fresh slice for the weaker modes.
func CanonicalInbox(mode RecvMode, inbox []Message) []Message {
	return CanonicalInboxInto(mode, inbox, nil)
}

// CanonicalInboxInto is the allocation-free form of CanonicalInbox: for the
// Multiset and Set modes it canonicalises into scratch (reallocating only
// when cap(scratch) < len(inbox)) and returns the canonical view, which
// aliases scratch; Vector returns inbox unchanged. The engine calls this
// with a per-worker scratch buffer sized to the maximum degree, so steady
// rounds perform no allocation. The inbox itself is never mutated. Machines
// must not retain the returned slice across Step calls (the Machine
// contract already requires Step to be pure).
//
//weakvet:noalloc
func CanonicalInboxInto(mode RecvMode, inbox, scratch []Message) []Message {
	switch mode {
	case RecvVector:
		return inbox
	case RecvMultiset:
		out := append(scratch[:0], inbox...)
		sortMessages(out)
		return out
	case RecvSet:
		out := append(scratch[:0], inbox...)
		sortMessages(out)
		dedup := out[:0]
		for i, m := range out {
			if i == 0 || m != out[i-1] {
				dedup = append(dedup, m)
			}
		}
		return dedup
	default:
		panic(fmt.Sprintf("machine: unknown receive mode %v", mode))
	}
}

// insertionSortCutoff is the inbox length above which sortMessages switches
// from insertion sort to slices.Sort. The inboxes of bounded-degree graphs
// are almost always tiny, where the branch-light O(d²) insertion sort wins;
// high-degree nodes (stars, complete graphs) fall through to pdqsort.
const insertionSortCutoff = 16

// sortMessages sorts by the canonical term order where both messages parse
// as terms, falling back to plain string order (the encodings are designed
// so both orders are total; string order suffices for canonical grouping,
// but term order matches <M in the paper's constructions).
func sortMessages(ms []Message) {
	// Message encodings compare consistently as strings for equality
	// grouping; the simulations that need the exact term order <M sort
	// decoded terms themselves. Keep this simple and total.
	if len(ms) > insertionSortCutoff {
		slices.Sort(ms)
		return
	}
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j] < ms[j-1]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// EncodeTerm converts a term into a Message.
func EncodeTerm(t term.Term) Message { return t.Encode() }

// EncodeTermStrings encodes a tuple of strings, a convenience for history
// messages and tests.
func EncodeTermStrings(ss ...string) Message {
	kids := make([]term.Term, len(ss))
	for i, s := range ss {
		kids[i] = term.Str(s)
	}
	return EncodeTerm(term.Tuple(kids...))
}

// DecodeTerm parses a Message back into a term; NoMessage decodes to the
// distinguished atom Str("m0").
func DecodeTerm(m Message) (term.Term, error) {
	if m == NoMessage {
		return term.Str("m0"), nil
	}
	return term.Parse(m)
}
