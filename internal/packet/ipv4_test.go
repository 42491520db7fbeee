package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ecn"
)

func sampleIPv4() IPv4Header {
	return IPv4Header{
		TOS:      ecn.SetTOS(0, ecn.ECT0),
		ID:       0xBEEF,
		Flags:    FlagDF,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      MustParseAddr("192.0.2.1"),
		Dst:      MustParseAddr("198.51.100.7"),
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := sampleIPv4()
	payload := []byte("ntp request bytes here..")
	wire, err := h.Marshal(nil, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	wire = append(wire, payload...)

	got, body, err := ParseIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload mismatch: %q", body)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TTL != h.TTL ||
		got.Protocol != h.Protocol || got.TOS != h.TOS || got.ID != h.ID ||
		got.Flags != h.Flags {
		t.Errorf("header mismatch:\n got %+v\nwant %+v", got, h)
	}
	if int(got.TotalLen) != IPv4HeaderLen+len(payload) {
		t.Errorf("TotalLen = %d", got.TotalLen)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	h := sampleIPv4()
	wire, err := h.Marshal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Checksum(wire[:IPv4HeaderLen]) != 0 {
		t.Error("marshalled header does not self-verify")
	}
}

func TestParseIPv4Errors(t *testing.T) {
	h := sampleIPv4()
	wire, _ := h.Marshal(nil, 0)

	t.Run("truncated", func(t *testing.T) {
		if _, _, err := ParseIPv4(wire[:10]); err == nil {
			t.Error("want error for short header")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[0] = 6<<4 | 5
		if _, _, err := ParseIPv4(bad); err == nil {
			t.Error("want error for version 6")
		}
	})
	t.Run("corrupt checksum", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[10] ^= 0xFF
		if _, _, err := ParseIPv4(bad); err == nil {
			t.Error("want checksum error")
		}
	})
	t.Run("bit flip detected", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[8] ^= 0x01 // TTL
		if _, _, err := ParseIPv4(bad); err == nil {
			t.Error("single bit flip must fail checksum")
		}
	})
	t.Run("total length too large", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[2], bad[3] = 0xFF, 0xFF
		if _, _, err := ParseIPv4(bad); err == nil {
			t.Error("want total length error")
		}
	})
	t.Run("options unsupported", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[0] = 4<<4 | 6
		if _, _, err := ParseIPv4(bad); err == nil {
			t.Error("want IHL error")
		}
	})
}

// Property: Marshal/Parse round-trips arbitrary valid headers.
func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, srcRaw, dstRaw uint32, plen uint8) bool {
		h := IPv4Header{
			TOS:      tos,
			ID:       id,
			TTL:      ttl,
			Flags:    FlagDF,
			Protocol: ProtoUDP,
			Src:      AddrFromUint32(srcRaw),
			Dst:      AddrFromUint32(dstRaw),
		}
		wire, err := h.Marshal(nil, int(plen))
		if err != nil {
			return false
		}
		wire = append(wire, make([]byte, plen)...)
		got, body, err := ParseIPv4(wire)
		if err != nil {
			return false
		}
		return got.TOS == tos && got.ID == id && got.TTL == ttl &&
			got.Src == h.Src && got.Dst == h.Dst && len(body) == int(plen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetWireECN(t *testing.T) {
	h := sampleIPv4()
	h.TOS = ecn.SetTOS(0b1011_0100, ecn.ECT0) // DSCP bits set too
	wire, _ := h.Marshal(nil, 0)

	if err := SetWireECN(wire, ecn.NotECT); err != nil {
		t.Fatal(err)
	}
	got, _, err := ParseIPv4(wire)
	if err != nil {
		t.Fatalf("checksum not fixed after rewrite: %v", err)
	}
	if got.ECN() != ecn.NotECT {
		t.Errorf("ECN = %v after bleach", got.ECN())
	}
	if got.TOS&^ecn.Mask != 0b1011_0100 {
		t.Errorf("DSCP bits disturbed: TOS=%#02x", got.TOS)
	}
}

func TestDecrementWireTTL(t *testing.T) {
	h := sampleIPv4()
	h.TTL = 3
	wire, _ := h.Marshal(nil, 0)

	for want := uint8(2); ; want-- {
		ttl, err := DecrementWireTTL(wire)
		if err != nil {
			t.Fatal(err)
		}
		if ttl != want {
			t.Fatalf("TTL = %d, want %d", ttl, want)
		}
		if _, _, err := ParseIPv4(wire); err != nil {
			t.Fatalf("checksum broken after decrement: %v", err)
		}
		if want == 0 {
			break
		}
	}
	if _, err := DecrementWireTTL(wire); err == nil {
		t.Error("decrement past zero must fail")
	}
}

func TestWireECN(t *testing.T) {
	h := sampleIPv4()
	for _, cp := range []ecn.Codepoint{ecn.NotECT, ecn.ECT0, ecn.ECT1, ecn.CE} {
		h.TOS = ecn.SetTOS(h.TOS, cp)
		wire, _ := h.Marshal(nil, 0)
		got, err := WireECN(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got != cp {
			t.Errorf("WireECN = %v, want %v", got, cp)
		}
	}
	if _, err := WireECN([]byte{0}); err == nil {
		t.Error("want truncation error")
	}
}

// Fuzz-ish robustness: the parser must never panic on random input.
func TestParseIPv4NoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		ParseIPv4(buf[:n]) // must not panic; errors are fine
	}
}

func TestIPv4String(t *testing.T) {
	h := sampleIPv4()
	s := h.String()
	for _, want := range []string{"192.0.2.1", "198.51.100.7", "UDP", "ECT(0)"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
