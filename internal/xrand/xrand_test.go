package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// The counting source must be stream-transparent: a rand.Rand built over
// it draws exactly what one built over rand.NewSource draws. Every seeded
// schedule/fault expectation in the repo depends on this.
func TestSourceStreamTransparent(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		for i := 0; i < 1000; i++ {
			switch i % 4 {
			case 0:
				if r, g := ref.Float64(), got.Float64(); r != g {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, r)
				}
			case 1:
				if r, g := ref.Intn(97), got.Intn(97); r != g {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, g, r)
				}
			case 2:
				if r, g := ref.Int63(), got.Int63(); r != g {
					t.Fatalf("seed %d draw %d: Int63 %v != %v", seed, i, g, r)
				}
			case 3:
				if r, g := ref.Uint64(), got.Uint64(); r != g {
					t.Fatalf("seed %d draw %d: Uint64 %v != %v", seed, i, g, r)
				}
			}
		}
	}
}

// SeekTo(c) must put the source in the exact state it was in when Cursor
// returned c, regardless of which Rand methods consumed the words.
func TestSeekToReproducesTail(t *testing.T) {
	src := NewSource(99)
	rng := rand.New(src)
	for i := 0; i < 500; i++ {
		if i%3 == 0 {
			rng.Float64()
		} else {
			rng.Intn(1000)
		}
	}
	cursor := src.Cursor()
	want := make([]float64, 50)
	for i := range want {
		want[i] = rng.Float64()
	}

	src2 := NewSource(99)
	rng2 := rand.New(src2)
	src2.SeekTo(cursor)
	if src2.Cursor() != cursor {
		t.Fatalf("cursor after seek: %d, want %d", src2.Cursor(), cursor)
	}
	for i := range want {
		if got := rng2.Float64(); got != want[i] {
			t.Fatalf("tail draw %d after seek: %v, want %v", i, got, want[i])
		}
	}
}

// streamSeeds covers the seeding edge cases: 0 and 2147483647 (≡ 0 mod
// 2³¹−1) both take the stdlib's fallback seed, and the large and negative
// seeds exercise its reduction modulo 2³¹−1.
var streamSeeds = []int64{0, 1, -1, 42, 89482311, 2147483647, 1 << 40, 1 << 62, -(1 << 62)}

// streamProbs are the coin biases the Bools ops draw against.
var streamProbs = []float64{0, 0.05, 0.25, 0.5, 0.999, 1}

// compareStream drives NewSource(seed) — directly and through rand.New —
// and a rand.New(rand.NewSource(seed)) reference through the same op
// string, failing at the first draw where they disagree. Each op byte
// picks a draw kind in its low three bits and a size or bias in the rest.
// It returns how many words the source drew.
func compareStream(t testing.TB, seed int64, ops []byte) int64 {
	t.Helper()
	src := NewSource(seed)
	rng := rand.New(src)
	ref := rand.New(rand.NewSource(seed))
	for i, b := range ops {
		arg := int(b >> 3)
		switch b & 7 {
		case 0:
			if g, r := src.Uint64(), ref.Uint64(); g != r {
				t.Fatalf("seed %d op %d: Uint64 %d, want %d", seed, i, g, r)
			}
		case 1:
			if g, r := src.Int63(), ref.Int63(); g != r {
				t.Fatalf("seed %d op %d: Int63 %d, want %d", seed, i, g, r)
			}
		case 2:
			if g, r := src.Float64(), ref.Float64(); g != r {
				t.Fatalf("seed %d op %d: Float64 %v, want %v", seed, i, g, r)
			}
		case 3, 7:
			p := streamProbs[arg%len(streamProbs)]
			mask := make([]bool, arg*29)
			src.Bools(mask, p)
			for j, g := range mask {
				if r := ref.Float64() < p; g != r {
					t.Fatalf("seed %d op %d: Bools(%d, %g)[%d] = %v, want %v", seed, i, len(mask), p, j, g, r)
				}
			}
		case 4:
			n := 1 + arg*1237
			if g, r := rng.Intn(n), ref.Intn(n); g != r {
				t.Fatalf("seed %d op %d: Intn(%d) %d, want %d", seed, i, n, g, r)
			}
		case 5:
			// Rejection sampling: about half the words are redrawn.
			n := int64(1)<<62 + int64(arg)
			if g, r := rng.Int63n(n), ref.Int63n(n); g != r {
				t.Fatalf("seed %d op %d: Int63n %d, want %d", seed, i, g, r)
			}
		case 6:
			// Seeking to where the source stands leaves the stream alone.
			src.SeekTo(src.Cursor())
		}
	}
	if g, r := src.Uint64(), ref.Uint64(); g != r {
		t.Fatalf("seed %d after %d ops: next word %d, want %d", seed, len(ops), g, r)
	}
	return src.Cursor() - 1
}

// Direct draws, batched masks and Intn through rand.New on the same
// source must all read math/rand's stream, well past the 607-word
// register, on every seeding edge case.
func TestDirectDrawsMatchStdlib(t *testing.T) {
	ops := make([]byte, 240)
	rand.New(rand.NewSource(5)).Read(ops)
	for _, seed := range streamSeeds {
		if words := compareStream(t, seed, ops); words <= 3*regLen {
			t.Fatalf("seed %d: the op string drew only %d words", seed, words)
		}
	}
}

// Bools must fill exactly what the Float64() < p loop yields and leave
// the cursor, and so the register, where that loop leaves it: from a
// fresh register and from one part-way round it.
func TestBoolsMatchesFloat64Loop(t *testing.T) {
	for _, seed := range streamSeeds {
		for _, n := range []int{0, 1, 606, 607, 608, 5000} {
			for _, skip := range []int{0, 300} {
				for _, p := range streamProbs {
					got, want := NewSource(seed), NewSource(seed)
					for i := 0; i < skip; i++ {
						got.Uint64()
						want.Uint64()
					}
					mask := make([]bool, n)
					got.Bools(mask, p)
					for i, g := range mask {
						if w := want.Float64() < p; g != w {
							t.Fatalf("seed %d n %d skip %d p %g: mask[%d] = %v, want %v", seed, n, skip, p, i, g, w)
						}
					}
					if got.Cursor() != want.Cursor() {
						t.Fatalf("seed %d n %d skip %d p %g: cursor %d, want %d", seed, n, skip, p, got.Cursor(), want.Cursor())
					}
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d n %d skip %d p %g: next word %d, want %d", seed, n, skip, p, g, w)
					}
				}
			}
		}
	}
}

// SeekTo must reproduce the tail after a mix of batched and single draws.
func TestSeekToAfterBatchedDraws(t *testing.T) {
	for _, seed := range streamSeeds {
		src := NewSource(seed)
		rng := rand.New(src)
		mask := make([]bool, 700)
		for i := 0; i < 5; i++ {
			src.Bools(mask, 0.5)
			src.Float64()
			rng.Intn(1000)
		}
		cursor := src.Cursor()
		want := make([]uint64, 2*regLen)
		for i := range want {
			want[i] = src.Uint64()
		}

		again := NewSource(seed)
		again.Bools(make([]bool, 3000), 0.3) // somewhere else entirely
		again.SeekTo(cursor)
		if again.Cursor() != cursor {
			t.Fatalf("seed %d: cursor after seek %d, want %d", seed, again.Cursor(), cursor)
		}
		for i, w := range want {
			if g := again.Uint64(); g != w {
				t.Fatalf("seed %d: tail word %d after seek: %d, want %d", seed, i, g, w)
			}
		}
	}
}

// A word that float64 rounds up to 2⁶³ (any Int63 ≥ 2⁶³−512) would make
// Float64 return 1. math/rand draws again instead, and so must Float64
// and Bools: planting such a word at the register's next position, each
// must skip it and draw one extra word, like rand.(*Rand).Float64 over
// the same register. 2⁶³−513 rounds down and is kept.
func TestFloat64SkipsWordRoundingToOne(t *testing.T) {
	for _, tc := range []struct {
		word  uint64
		skips bool
	}{
		{1<<63 - 512, true},
		{1<<63 - 1, true},
		{1<<64 - 1, true}, // sign bit set: Int63 clears it
		{1<<63 - 513, false},
	} {
		base := NewSource(42)
		base.Bools(make([]bool, 1000), 0.5)
		// The next draw reads vec[feed-1] + vec[tap-1]; plant the word there.
		feed, tap := (base.feed+regLen-1)%regLen, (base.tap+regLen-1)%regLen
		base.vec[feed] = int64(tc.word) - base.vec[tap]
		start := base.Cursor()
		extra := int64(0)
		if tc.skips {
			extra = 1
		}

		ref := *base
		want := rand.New(&ref).Float64()
		if ref.Cursor() != start+1+extra {
			t.Fatalf("word %#x: rand.Float64 drew %d words", tc.word, ref.Cursor()-start)
		}
		next := ref.Uint64()

		f := *base
		if got := f.Float64(); got != want || f.Cursor() != start+1+extra {
			t.Errorf("word %#x: Float64 %v after %d words, want %v after %d",
				tc.word, got, f.Cursor()-start, want, 1+extra)
		}
		if f.Uint64() != next {
			t.Errorf("word %#x: Float64 left the register elsewhere", tc.word)
		}

		// Bools compares the same float: false at p = want, true just
		// above it.
		for _, p := range []float64{want, math.Nextafter(want, 2)} {
			b := *base
			mask := []bool{false}
			b.Bools(mask, p)
			if mask[0] != (want < p) || b.Cursor() != start+1+extra {
				t.Errorf("word %#x p %v: Bools got %v after %d words, want %v after %d",
					tc.word, p, mask[0], b.Cursor()-start, want < p, 1+extra)
			}
			if b.Uint64() != next {
				t.Errorf("word %#x: Bools left the register elsewhere", tc.word)
			}
		}
	}
}

// FuzzSourceStream runs compareStream over arbitrary seeds and op strings.
func FuzzSourceStream(f *testing.F) {
	for i, seed := range streamSeeds {
		ops := make([]byte, 24)
		rand.New(rand.NewSource(int64(i))).Read(ops)
		f.Add(seed, ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		// Longer op strings add little a fuzzer can find, and make every
		// minimisation step slower.
		if len(ops) > 64 {
			ops = ops[:64]
		}
		compareStream(t, seed, ops)
	})
}
