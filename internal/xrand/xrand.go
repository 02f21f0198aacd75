// Package xrand is math/rand's seeded generator with a draw cursor, so
// the seeded schedule and fault generators can checkpoint how much of
// their random stream a run has consumed and fast-forward back to that
// exact position on resume.
//
// The cursor counts at the Source level, not the Rand level: rand.Rand
// methods consume a variable number of source words (Float64 can loop on
// an edge case, Intn rejects out-of-range words), so counting Float64 or
// Intn calls would not pin the stream position. Counting words does.
//
// Source does not wrap the stdlib source; it is a copy of its generator,
// the additive lagged-Fibonacci generator of math/rand (Mitchell and
// Reeds): a 607-word register in which each draw is
// x = vec[feed] + vec[tap], written back at feed, with the tap 273 words
// behind. Owning the register is what makes the per-element draws cheap.
// A rand.Rand over a wrapped source paid two interface calls per word;
// Uint64 and Float64 here inline at the call site, and Bools keeps the
// register indices in locals across a whole mask.
//
// The register is seeded from rand.NewSource(seed) itself: the stdlib's
// first 607 outputs determine its initial register once the lag
// recurrence is solved backwards (see Seed), so no seeding table is
// copied. A Source used directly, or wrapped in rand.New for Intn and
// friends, draws exactly what rand.New(rand.NewSource(seed)) draws, which
// keeps every committed seeded expectation.
package xrand

import "math/rand"

// The register of math/rand's generator: its length, and how far the
// tap trails the feed.
const (
	regLen    = 607
	regTap    = 273
	int63Mask = 1<<63 - 1
)

// Source is a rand.Source64 drawing math/rand's seeded stream and counting
// every word it draws. It is not safe for concurrent use — exactly like
// the stdlib source, and by design: the engine draws all randomness on
// its coordinator.
type Source struct {
	tap, feed int // register indices of the last draw
	seed      int64
	draws     int64
	vec       [regLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed reseeds the source and resets the cursor.
//
// It draws the first 607 words x_1..x_607 of rand.NewSource(seed) and
// solves the recurrence for the register they came from. Starting from
// tap 0 and feed 334, draw k reads feed_k = (334−k) mod 607, which no
// earlier draw has written, and tap_k = 607−k, which draw k−273 wrote
// when k > 273. So x_k = vec0[feed_k] + x_{k−273} for k > 273 and
// x_k = vec0[feed_k] + vec0[607−k] otherwise. The first case fills the
// feed positions of draws 274..607, which include every 607−k that the
// second case reads, and the second case then fills the rest.
func (s *Source) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	var x [regLen + 1]int64 // x[k] is the stdlib's k-th word, k ≥ 1
	for k := 1; k <= regLen; k++ {
		x[k] = int64(std.Uint64())
	}
	feedAt := func(k int) int { return (2*regLen - regTap - k) % regLen }
	for k := regLen; k > regTap; k-- {
		s.vec[feedAt(k)] = x[k] - x[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		s.vec[feedAt(k)] = x[k] - s.vec[regLen-k]
	}
	s.tap, s.feed = 0, regLen-regTap
	s.seed, s.draws = seed, 0
}

// Uint64 draws one word.
//
//weakvet:noalloc
func (s *Source) Uint64() uint64 {
	s.draws++
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 draws one word and clears its sign bit.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// Float64 draws like rand.(*Rand).Float64: a word over 2⁶³, drawing again
// in the rare case that the quotient rounds up to 1.
//
//weakvet:noalloc
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Bools sets dst[i] = s.Float64() < p for every i in order, drawing
// exactly the words that loop would draw. It is the batched form of the
// per-element coin: the register indices stay in locals for the whole
// mask.
//
//weakvet:noalloc
func (s *Source) Bools(dst []bool, p float64) {
	tap, feed, vec := s.tap, s.feed, &s.vec
	draws := s.draws
	for i := range dst {
		for {
			tap--
			if tap < 0 {
				tap += regLen
			}
			feed--
			if feed < 0 {
				feed += regLen
			}
			x := vec[feed] + vec[tap]
			vec[feed] = x
			draws++
			if f := float64(x&int63Mask) / (1 << 63); f < 1 {
				dst[i] = f < p
				break
			}
		}
	}
	s.tap, s.feed, s.draws = tap, feed, draws
}

// Cursor returns how many words have been drawn since the last seeding.
func (s *Source) Cursor() int64 { return s.draws }

// SeekTo rewinds the source to its seed and burns words until the cursor
// reaches cursor: afterwards the source is in the exact state it was in
// when Cursor returned that value. Every draw method advances the
// register one word at a time, so the burn is draw-type agnostic.
func (s *Source) SeekTo(cursor int64) {
	s.Seed(s.seed)
	for s.draws < cursor {
		s.Uint64()
	}
}
