package algorithms

import (
	"strconv"

	"weakmodels/internal/machine"
)

// maxTabled caps the integers an intAlphabet tables. Δ is at most n-1 on
// any real graph, but a machine may be built for a bound rather than a
// graph (MaxConsensus(1<<40)); past the cap, encode formats as strconv
// does instead of holding a table linear in the bound.
const maxTabled = 1 << 16

// maxDigits is the longest string decodeInt reads by its own loop: 18
// bytes on 64-bit platforms (9 on 32-bit), the longest that cannot
// overflow int. strconv.Atoi's fast path stops at the same length.
const maxDigits = strconv.IntSize / 32 * 9

// intAlphabet is the message alphabet of a machine that sends the
// decimal integers 0..hi, hi fixed by Δ: once Δ is fixed, so is the
// message set M (§1.1). It hands out each message from a table built at
// construction, so μ formats nothing per message, and equal messages
// share one backing string, which lets the engine's inbox sort compare
// them by pointer.
type intAlphabet struct {
	hi   int
	strs []string // strs[n] == strconv.Itoa(n), all slices of one string
}

// newIntAlphabet tables the decimal strings of 0..min(hi, maxTabled). A
// negative hi gives the empty alphabet.
func newIntAlphabet(hi int) *intAlphabet {
	a := &intAlphabet{hi: hi}
	n := min(hi, maxTabled) + 1
	if n <= 0 {
		return a
	}
	var digits []byte
	ends := make([]int, n)
	for i := range ends {
		digits = strconv.AppendInt(digits, int64(i), 10)
		ends[i] = len(digits)
	}
	backing := string(digits)
	a.strs = make([]string, n)
	start := 0
	for i, end := range ends {
		a.strs[i] = backing[start:end]
		start = end
	}
	return a
}

// encode returns strconv.Itoa(n), from the table when n is in it. Any
// other n, such as a state restored from an arbitrary snapshot, is
// formatted by strconv.
//
//weakvet:noalloc
func (a *intAlphabet) encode(n int) string {
	if uint(n) < uint(len(a.strs)) {
		return a.strs[n]
	}
	return strconv.Itoa(n)
}

// valid is the MessageGuard predicate of the integer gossips: it accepts
// m iff strconv.Atoi(m) succeeds with a value in [0, hi]. That is the
// decimal encodings of 0..hi, plus their spellings with leading zeros
// ("007"), with a leading '+' ("+7"), and "-0" (or "-00"...). Under a
// Byzantine fault plan the engine then delivers out-of-alphabet garbage
// as m0, which the Step functions already skip, and rejects
// in-alphabet-but-out-of-range lies: essential for monotone aggregates
// like max, where a single value above the true maximum would poison the
// configuration forever. A rejection allocates only for a string longer
// than maxDigits; the Byzantine plan's corruptions of an in-alphabet
// message (a bit flip, silence, a replay) are never that long.
//
//weakvet:noalloc
func (a *intAlphabet) valid(m machine.Message) bool {
	n, ok := decodeInt(m)
	return ok && n >= 0 && n <= a.hi
}

// decodeInt returns what strconv.Atoi(s) returns: the value, and whether
// Atoi succeeded. A string of at most maxDigits bytes is read by a digit
// loop that mirrors Atoi's own fast path, an optional sign included, but
// fails without building Atoi's error, which allocates. Only longer
// strings reach strconv: their value may overflow, and then Atoi reports
// a range error with a clamped value before it looks at a bad byte.
//
//weakvet:noalloc
func decodeInt(s string) (int, bool) {
	if len(s) > maxDigits {
		v, err := strconv.Atoi(s)
		return v, err == nil
	}
	body := s
	if s != "" && (s[0] == '+' || s[0] == '-') {
		body = s[1:]
	}
	if body == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(body); i++ {
		d := body[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	if s[0] == '-' {
		n = -n
	}
	return n, true
}
