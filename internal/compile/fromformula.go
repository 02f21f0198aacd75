// Package compile implements Theorem 2 of the paper in both directions:
//
//   - MachineFromFormula turns a modal formula into a local algorithm of the
//     matching class that evaluates the formula on K_{a,b}(G,p): the machine
//     state assigns each subformula a value in {0, 1, U}, messages carry the
//     restriction of that assignment to the subformulas under diamonds
//     (the sets D_j / D / D′ of the proof), and the transition function is
//     exactly the clauses (δ∧), (δ¬), (δ◇) and their variants. The machine
//     halts after md(ψ) rounds with output "1" exactly on ‖ψ‖.
//
//   - FormulaFromMachine unfolds a machine's reachable configuration space
//     into the formula families ϕ_{z,t}, ϑ_{m,j,t}, χ_{m,i,j,t} of Tables 4
//     and 5, for each of the four Kripke variants, yielding for every output
//     value y a formula that holds exactly at the nodes outputting y.
//
// A compiled machine's messages are flat byte strings. The message on
// out-port j holds one byte per entry of D_j (of D on the broadcast
// variants K₊,₋ and K₋,₋), in ascending subformula order: '0', '1' or 'U',
// the sender's value of that subformula. On the per-port variants K₊,₊ and
// K₋,₊ the tag j comes first, in decimal, zero-padded to the width of Δ.
// Every message on out-port j therefore has the same length, and δ reads
// ϑ's value at an offset fixed per (j, ϑ) when the formula is compiled:
// no parsing and no allocation on the receiving side. The machine's
// message guard (machine.MessageGuard) accepts exactly the strings μ can
// emit, so a payload that a fault plan corrupts out of this layout
// reaches δ as m0.
//
// The correspondence of Table 3 — formula ↔ algorithm, modal depth ↔
// running time — is exercised end-to-end by this package's tests.
package compile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"weakmodels/internal/kripke"
	"weakmodels/internal/logic"
	"weakmodels/internal/machine"
)

// Tri is the three-valued truth domain {0, 1, U} of the Theorem 2 proof.
type Tri int8

// The three truth values.
const (
	TriFalse Tri = 0
	TriTrue  Tri = 1
	TriU     Tri = 2
)

// VariantForFormula infers the unique Kripke variant whose relation
// signature covers every label of f, or fails when labels mix regimes.
func VariantForFormula(f logic.Formula) (kripke.Variant, error) {
	labels := logic.Labels(f)
	if len(labels) == 0 {
		return kripke.VariantMM, nil // propositional: weakest regime suffices
	}
	iConcrete, iStar, jConcrete, jStar := false, false, false, false
	for _, l := range labels {
		if l.I == kripke.Star {
			iStar = true
		} else {
			iConcrete = true
		}
		if l.J == kripke.Star {
			jStar = true
		} else {
			jConcrete = true
		}
	}
	if (iConcrete && iStar) || (jConcrete && jStar) {
		return 0, fmt.Errorf("compile: formula mixes concrete and ∗ indices: %v", labels)
	}
	return kripke.VariantForRecvSend(iConcrete, jConcrete), nil
}

// compiled is the static structure shared by all nodes running the
// compiled machine: the subformula closure in evaluation order.
type compiled struct {
	// subs in ascending Size order, so children precede parents.
	subs []logic.Formula
	// index by rendered form.
	index map[string]int
	// root is the index of ψ itself.
	root int
	// children[i] lists child indices of subs[i].
	children [][]int
	delta    int
	variant  kripke.Variant
	graded   bool
	// broadcast is true on K₊,₋ and K₋,₋, whose messages carry no tag.
	broadcast bool
	// dsets[j] (1-based j; index 0 unused) lists subformula indices sent to
	// port j: D_j for per-port variants. For broadcast variants dsets[1]
	// holds D (all ports share it).
	dsets [][]int
	// tagWidth is the number of decimal digits of the tag j that opens
	// every per-port message (the width of Δ); 0 on broadcast variants.
	tagWidth int
	// reads[i] is the (δ◇) read of subs[i] when it is a diamond.
	reads []diamondRead
}

// diamondRead is the precomputed (δ◇) read of one diamond ⟨(i,j)⟩≥k ϑ: the
// messages that carry ϑ's value are exactly those of length size that
// start with tag, and the value sits at offset pos.
type diamondRead struct {
	in   int    // in-port i to read; kripke.Star counts over the whole inbox
	k    int    // grade: how many messages must carry 1 (∗ in-ports only)
	tag  string // the sender's out-port j, zero-padded; "" on broadcast
	size int    // length of a message carrying ϑ: tag plus |D_j|
	pos  int    // offset of ϑ's value byte
}

// triBytes holds the message byte of each truth value: triBytes[v] for
// the Tri v.
const triBytes = "01U"

// fmState is the per-node state: one Tri per subformula. It renders
// deterministically under %#v (needed by FormulaFromMachine round trips).
type fmState struct {
	Vals []Tri
	Done bool
	Out  machine.Output
}

func newCompiled(f logic.Formula, delta int) (*compiled, error) {
	variant, err := VariantForFormula(f)
	if err != nil {
		return nil, err
	}
	fragment := logic.ClassifyFragment(f)
	if fragment.Graded && (variant == kripke.VariantPP || variant == kripke.VariantPM) {
		return nil, fmt.Errorf(
			"compile: graded diamonds with concrete in-ports are outside the Theorem 2 correspondence (fragment %v on %v)",
			fragment, variant)
	}
	subs := logic.Subformulas(f)
	sort.Slice(subs, func(a, b int) bool {
		sa, sb := logic.Size(subs[a]), logic.Size(subs[b])
		if sa != sb {
			return sa < sb
		}
		return subs[a].String() < subs[b].String()
	})
	c := &compiled{
		subs:      subs,
		index:     make(map[string]int, len(subs)),
		delta:     delta,
		variant:   variant,
		graded:    fragment.Graded,
		broadcast: variant == kripke.VariantPM || variant == kripke.VariantMM,
	}
	for i, s := range subs {
		c.index[s.String()] = i
	}
	c.root = c.index[f.String()]
	c.children = make([][]int, len(subs))
	for i, s := range subs {
		switch x := s.(type) {
		case logic.Not:
			c.children[i] = []int{c.index[x.F.String()]}
		case logic.And:
			c.children[i] = []int{c.index[x.L.String()], c.index[x.R.String()]}
		case logic.Or:
			c.children[i] = []int{c.index[x.L.String()], c.index[x.R.String()]}
		case logic.Diamond:
			c.children[i] = []int{c.index[x.F.String()]}
		}
	}
	// Build the D sets.
	if c.broadcast {
		c.dsets = make([][]int, 2)
	} else {
		c.dsets = make([][]int, delta+1)
		c.tagWidth = len(strconv.Itoa(delta))
	}
	seen := make(map[[2]int]bool)
	for i, s := range subs {
		d, ok := s.(logic.Diamond)
		if !ok {
			continue
		}
		j := c.slot(d)
		if !c.broadcast && (j < 1 || j > delta) {
			return nil, fmt.Errorf("compile: out-port %d outside [1,%d] in %v", j, delta, s)
		}
		child := c.children[i][0]
		if !seen[[2]int{j, child}] {
			seen[[2]int{j, child}] = true
			c.dsets[j] = append(c.dsets[j], child)
		}
	}
	for j := range c.dsets {
		sort.Ints(c.dsets[j])
	}
	// Fix every diamond's read now that the D sets, and with them the
	// message layout, are final.
	c.reads = make([]diamondRead, len(subs))
	for i, s := range subs {
		d, ok := s.(logic.Diamond)
		if !ok {
			continue
		}
		j := c.slot(d)
		var tag strings.Builder
		c.writeTag(&tag, j)
		c.reads[i] = diamondRead{
			in:   d.Idx.I,
			k:    d.K,
			tag:  tag.String(),
			size: c.tagWidth + len(c.dsets[j]),
			pos:  c.tagWidth + sort.SearchInts(c.dsets[j], c.children[i][0]),
		}
	}
	return c, nil
}

// slot returns the index into dsets of the messages a diamond reads: its
// out-port j, or 1 on broadcast variants.
func (c *compiled) slot(d logic.Diamond) int {
	if c.broadcast {
		return 1
	}
	return d.Idx.J
}

// writeTag writes out-port j as the prefix of its messages: tagWidth
// decimal digits, zero-padded. Broadcast variants have no tag.
func (c *compiled) writeTag(b *strings.Builder, j int) {
	if c.broadcast {
		return
	}
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(j), 10)
	for range c.tagWidth - len(digits) {
		b.WriteByte('0')
	}
	b.Write(digits)
}

// initVals evaluates all modal-depth-0 subformulas for a node of the given
// degree; diamonds start undefined.
func (c *compiled) initVals(deg int) []Tri {
	vals := make([]Tri, len(c.subs))
	for i, s := range c.subs {
		switch x := s.(type) {
		case logic.Top:
			vals[i] = TriTrue
		case logic.Bot:
			vals[i] = TriFalse
		case logic.Prop:
			vals[i] = TriFalse
			if deg >= 1 && x.Name == kripke.DegreeProp(deg) {
				vals[i] = TriTrue
			}
		case logic.Not:
			vals[i] = triNot(vals[c.children[i][0]])
		case logic.And:
			vals[i] = triAnd(vals[c.children[i][0]], vals[c.children[i][1]])
		case logic.Or:
			vals[i] = triOr(vals[c.children[i][0]], vals[c.children[i][1]])
		case logic.Diamond:
			vals[i] = TriU
		}
	}
	return vals
}

func triNot(a Tri) Tri {
	switch a {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriU
	}
}

func triAnd(a, b Tri) Tri {
	// The proof's clause (δ∧): strictness in U.
	if a == TriU || b == TriU {
		return TriU
	}
	if a == TriTrue && b == TriTrue {
		return TriTrue
	}
	return TriFalse
}

func triOr(a, b Tri) Tri {
	if a == TriU || b == TriU {
		return TriU
	}
	if a == TriTrue || b == TriTrue {
		return TriTrue
	}
	return TriFalse
}

// send is μ: the values of the D set of out-port j (of D on broadcast
// variants) in ascending subformula order, after the tag j on per-port
// variants.
func (c *compiled) send(vals []Tri, j int) machine.Message {
	if c.broadcast {
		j = 1
	}
	var b strings.Builder
	b.Grow(c.tagWidth + len(c.dsets[j]))
	c.writeTag(&b, j)
	for _, idx := range c.dsets[j] {
		b.WriteByte(triBytes[vals[idx]])
	}
	return b.String()
}

// MachineFromFormula compiles ψ into a local algorithm per Theorem 2. The
// machine's class matches the formula's fragment and variant:
//
//	K₊,₊ → Vector (VV),  K₋,₊ graded → Multiset (MV), ungraded → Set (SV),
//	K₊,₋ → Broadcast (VB), K₋,₋ graded → MB, ungraded → SB.
//
// Its running time is exactly md(ψ) rounds and its output is "1" at node v
// iff K_{a,b}(G,p), v ⊨ ψ.
func MachineFromFormula(f logic.Formula, delta int) (machine.Machine, kripke.Variant, error) {
	c, err := newCompiled(f, delta)
	if err != nil {
		return nil, 0, err
	}
	var class machine.Class
	switch c.variant {
	case kripke.VariantPP:
		class = machine.ClassVV
	case kripke.VariantMP:
		if c.graded {
			class = machine.ClassMV
		} else {
			class = machine.ClassSV
		}
	case kripke.VariantPM:
		class = machine.ClassVB
	case kripke.VariantMM:
		if c.graded {
			class = machine.ClassMB
		} else {
			class = machine.ClassSB
		}
	}
	m := &machine.Func{
		MachineName:  fmt.Sprintf("compiled[%s]", f.String()),
		MachineClass: class,
		MaxDeg:       delta,
		InitFunc: func(deg int) machine.State {
			s := fmState{Vals: c.initVals(deg)}
			if s.Vals[c.root] != TriU {
				s.Done = true
				s.Out = outputOf(s.Vals[c.root])
			}
			return s
		},
		HaltedFunc: func(s machine.State) (machine.Output, bool) {
			x := s.(fmState)
			return x.Out, x.Done
		},
		SendFunc: func(s machine.State, port int) machine.Message {
			return c.send(s.(fmState).Vals, port)
		},
		StepFunc: func(s machine.State, inbox []machine.Message) machine.State {
			next := c.step(s.(fmState).Vals, inbox)
			out := fmState{Vals: next}
			if next[c.root] != TriU {
				out.Done = true
				out.Out = outputOf(next[c.root])
			}
			return out
		},
		ValidFunc: c.validMessage,
	}
	return m, c.variant, nil
}

func outputOf(v Tri) machine.Output {
	if v == TriTrue {
		return "1"
	}
	return "0"
}

// step implements the transition clauses (δ∧), (δ¬) and the four (δ◇)
// variants.
func (c *compiled) step(old []Tri, inbox []machine.Message) []Tri {
	next := make([]Tri, len(old))
	copy(next, old)
	for i, s := range c.subs {
		if old[i] != TriU {
			continue // clause (a): settled values persist
		}
		switch s.(type) {
		case logic.Not:
			next[i] = triNot(next[c.children[i][0]])
		case logic.And:
			next[i] = triAnd(next[c.children[i][0]], next[c.children[i][1]])
		case logic.Or:
			next[i] = triOr(next[c.children[i][0]], next[c.children[i][1]])
		case logic.Diamond:
			if old[c.children[i][0]] == TriU {
				continue // gate: child not yet evaluated anywhere
			}
			next[i] = c.reads[i].eval(inbox)
		}
	}
	return next
}

// eval applies the variant's clause (δ◇) to an inbox: ⟨(i,·)⟩ϑ holds iff
// the message at in-port i carries 1 for ϑ, and ⟨(∗,·)⟩≥k ϑ iff at least k
// inbox messages do. m0, and on per-port variants a message sent through
// another out-port, carries no value of ϑ.
//
//weakvet:noalloc
func (r *diamondRead) eval(inbox []machine.Message) Tri {
	if r.in != kripke.Star {
		return boolTri(r.in <= len(inbox) && r.carriesTrue(inbox[r.in-1]))
	}
	count := 0
	for _, m := range inbox {
		if r.carriesTrue(m) {
			count++
		}
	}
	return boolTri(count >= r.k)
}

// carriesTrue reports whether m carries the value 1 for the diamond's
// child.
func (r *diamondRead) carriesTrue(m machine.Message) bool {
	return len(m) == r.size && m[r.pos] == triBytes[TriTrue] && m[:len(r.tag)] == r.tag
}

// validMessage is the message guard: it accepts exactly the strings send
// can emit, that is the tag of an out-port in [1,Δ] on per-port variants,
// then one value byte per entry of that port's D set.
func (c *compiled) validMessage(m machine.Message) bool {
	j := 1
	if !c.broadcast {
		if len(m) < c.tagWidth {
			return false
		}
		j = 0
		for p := 0; p < c.tagWidth; p++ {
			if m[p] < '0' || m[p] > '9' {
				return false
			}
			j = 10*j + int(m[p]-'0')
		}
		if j < 1 || j > c.delta {
			return false
		}
	}
	if len(m) != c.tagWidth+len(c.dsets[j]) {
		return false
	}
	for p := c.tagWidth; p < len(m); p++ {
		if strings.IndexByte(triBytes, m[p]) < 0 {
			return false
		}
	}
	return true
}

func boolTri(b bool) Tri {
	if b {
		return TriTrue
	}
	return TriFalse
}
