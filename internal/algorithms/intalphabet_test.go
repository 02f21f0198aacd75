package algorithms

import (
	"strconv"
	"testing"
)

// FuzzIntAlphabet checks the integer alphabet against strconv, which it
// replaces: on any string, decodeInt returns what strconv.Atoi returns
// (value and success) and the guard gives the verdict of the Atoi-and-
// range predicate it replaced; on [−2, hi+2], encode returns
// strconv.Itoa. hi is folded into (−maxTabled−4, maxTabled+4), so the
// table's cap is crossed while each alphabet stays small enough to build
// and check whenever hi changes. The seed corpus below runs in every go
// test.
func FuzzIntAlphabet(f *testing.F) {
	for _, s := range []string{
		"", "0", "7", "175", "176", "-0", "-00", "+0", "+7", "007", "-1",
		"+", "-", "++1", "+-1", "1a", " 1", "1 ", "0x1", "1_0", "\xff", "beep",
		"t(1,2)", "999999999999999999", "-999999999999999999",
		"9223372036854775807", "9223372036854775808", "-9223372036854775809",
		"00000000000000000000000001", "+00000000000000000000000001",
	} {
		f.Add(s, int32(175))
	}
	f.Add("1", int32(0))
	f.Add("0", int32(-1))
	f.Add("65536", int32(maxTabled))
	f.Add("65537", int32(maxTabled+2))
	// Only the last alphabet is kept: a table near the cap holds about
	// 1.4 MB, and the fuzzer visits hundreds of distinct hi.
	var last *intAlphabet
	f.Fuzz(func(t *testing.T, s string, h int32) {
		hi := int(h % (maxTabled + 4))
		a := last
		if a == nil || a.hi != hi {
			a = newIntAlphabet(hi)
			for n := -2; n <= hi+2; n++ {
				if got, want := a.encode(n), strconv.Itoa(n); got != want {
					t.Fatalf("hi=%d: encode(%d) = %q, want %q", hi, n, got, want)
				}
			}
			last = a
		}
		n, ok := decodeInt(s)
		want, err := strconv.Atoi(s)
		if n != want || ok != (err == nil) {
			t.Fatalf("decodeInt(%q) = %d, %v; strconv.Atoi gives %d, %v", s, n, ok, want, err)
		}
		if got, want := a.valid(s), err == nil && want >= 0 && want <= hi; got != want {
			t.Fatalf("hi=%d: valid(%q) = %v, want %v", hi, s, got, want)
		}
	})
}
