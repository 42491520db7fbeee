package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// sumWordsBytePair is the pre-widening sumWords, kept as the oracle for
// the eight-bytes-per-step implementation: a plain integer sum of
// big-endian 16-bit words, a trailing odd byte padded with zero.
func sumWordsBytePair(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// TestSumWordsMatchesBytePair checks the wide sumWords against the
// byte-pair oracle on every length 0–1501 (so every tail shape after
// the 32- and 8-byte loops, odd ones included) over random, all-zero
// and all-0xFF data, with zero and non-zero incoming accumulators. The
// two need not return the same integer — only the same checksum once
// folded, which also pins the 0-vs-0xFFFF distinction: all-zero input
// must still fold to 0xFFFF, all-ones input to 0.
func TestSumWordsMatchesBytePair(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	for n := 0; n <= 1501; n++ {
		random := make([]byte, n)
		rng.Read(random)
		for name, data := range map[string][]byte{
			"random": random,
			"zero":   make([]byte, n),
			"ones":   bytes.Repeat([]byte{0xFF}, n),
		} {
			for _, seed := range []uint32{0, 1, 0xFFFF, rng.Uint32() >> 12} {
				got := finishChecksum(sumWords(seed, data))
				want := finishChecksum(sumWordsBytePair(seed, data))
				if got != want {
					t.Fatalf("%s data, len %d, seed %#x: checksum %#04x, byte-pair oracle %#04x", name, n, seed, got, want)
				}
			}
		}
	}
	if got := sumWords(0, make([]byte, 1500)); got != 0 {
		t.Errorf("all-zero input summed to %#x, want 0", got)
	}
}

// TestHeaderChecksumOKMatchesBytePair holds the fixed-offset header
// verification (what every router hop and every ParseIPv4 runs) to the
// byte-pair oracle: on random 20-byte headers given a correct checksum
// by the oracle, on the same headers with each single bit flipped, on
// the 0x0000/0xFFFF checksum-field aliases, and on all-zero and
// all-ones headers, it must agree with "the oracle's checksum over the
// header is zero".
func TestHeaderChecksumOKMatchesBytePair(t *testing.T) {
	oracleOK := func(h []byte) bool { return finishChecksum(sumWordsBytePair(0, h)) == 0 }
	check := func(what string, h []byte) {
		t.Helper()
		if got, want := headerChecksumOK(h), oracleOK(h); got != want {
			t.Fatalf("%s: headerChecksumOK(%x) = %v, byte-pair oracle %v", what, h, got, want)
		}
	}
	rng := rand.New(rand.NewSource(791))
	valid := 0
	for i := 0; i < 2000; i++ {
		h := make([]byte, IPv4HeaderLen)
		rng.Read(h)
		check("random", h)
		h[10], h[11] = 0, 0
		ck := finishChecksum(sumWordsBytePair(0, h))
		h[10], h[11] = byte(ck>>8), byte(ck)
		check("checksummed", h)
		if headerChecksumOK(h) {
			valid++
		}
		for bit := 0; bit < 8*IPv4HeaderLen; bit++ {
			h[bit/8] ^= 1 << (bit % 8)
			check("bit flip", h)
			h[bit/8] ^= 1 << (bit % 8)
		}
		for _, alias := range []byte{0x00, 0xFF} {
			h[10], h[11] = alias, alias
			check("checksum alias", h)
		}
	}
	if valid != 2000 {
		t.Errorf("%d of 2000 oracle-checksummed headers verified", valid)
	}
	check("all zero", make([]byte, IPv4HeaderLen))
	check("all ones", bytes.Repeat([]byte{0xFF}, IPv4HeaderLen))
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Worked example from RFC 1071 §3: the ones'-complement sum of
	// {00 01, f2 03, f4 f5, f6 f7} is ddf2 with carries folded.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero on the right.
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Errorf("odd-length checksum wrong: %#04x", Checksum([]byte{0xab}))
	}
}

func TestChecksumEmpty(t *testing.T) {
	if Checksum(nil) != 0xFFFF {
		t.Errorf("empty checksum = %#04x, want 0xffff", Checksum(nil))
	}
}

// Property: appending the checksum of data (as two big-endian bytes) to
// data yields a buffer whose checksum verifies to zero. This is exactly
// how IP header validation works.
func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		// The self-verification property requires even-length data; the
		// protocols here always checksum even-length header regions.
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(withCk) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the checksum is independent of how the data is split across
// the accumulator (linearity of the ones'-complement sum over 16-bit
// aligned boundaries).
func TestChecksumSplitInvariance(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = append(a, 0)
		}
		joined := append(append([]byte(nil), a...), b...)
		split := finishChecksum(sumWords(sumWords(0, a), b))
		return Checksum(joined) == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPseudoHeaderSum(t *testing.T) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	got := pseudoHeaderSum(src, dst, ProtoUDP, 12)
	want := uint32(0x0a00+0x0001+0x0a00+0x0002) + 17 + 12
	if got != want {
		t.Errorf("pseudoHeaderSum = %#x, want %#x", got, want)
	}
}
