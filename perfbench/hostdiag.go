package main

import (
	"fmt"
	"runtime"
	"time"
)

// Host diagnostics, printed before and after a run's timed ops. They are
// not gated metrics: they let a reader tell a slow host window (both read
// high) from a regression (both read normal).

const (
	aluIters = 1 << 25
	// chaseWords makes the chase buffer 32 MiB of uint32 — far larger than
	// the 2 MiB per-core L2, and a sizeable share of the shared L3, so the
	// chase time moves with other tenants' cache and memory traffic.
	chaseWords = 1 << 23
	chaseSteps = 1 << 19
)

// aluSink keeps the ALU loop's result alive.
var aluSink uint64

// aluLoop times a fixed xorshift loop: pure register arithmetic.
func aluLoop() time.Duration {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for range aluIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	aluSink += x
	return d
}

// pointerChase times a fixed dependent-load walk over a 32 MiB buffer
// holding one full-period LCG cycle, so every load depends on the last and
// the address stream has no stride a prefetcher could follow. The buffer is
// dropped and collected before returning, so it never inflates the heap the
// timed ops run against.
func pointerChase() time.Duration {
	buf := make([]uint32, chaseWords)
	const a, c = 1664525, 1013904223 // a ≡ 1 mod 4, c odd: full period mod 2^23
	for i := range buf {
		buf[i] = uint32((uint64(i)*a + c) & (chaseWords - 1))
	}
	x := uint32(0)
	t0 := time.Now()
	for range chaseSteps {
		x = buf[x]
	}
	d := time.Since(t0)
	aluSink += uint64(x)
	runtime.GC()
	return d
}

func hostDiag(when string) string {
	return fmt.Sprintf("# host %s: alu_ms=%.3f chase_ms=%.3f", when,
		float64(aluLoop())/1e6, float64(pointerChase())/1e6)
}
