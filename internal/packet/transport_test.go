package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	tSrc = MustParseAddr("10.1.2.3")
	tDst = MustParseAddr("10.9.8.7")
)

func TestUDPRoundTrip(t *testing.T) {
	u := UDPHeader{SrcPort: 54321, DstPort: 123}
	payload := bytes.Repeat([]byte{0xA5}, 48) // NTP-sized
	seg, err := u.Marshal(nil, tSrc, tDst, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, body, err := ParseUDP(seg, tSrc, tDst)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 54321 || got.DstPort != 123 {
		t.Errorf("ports = %d,%d", got.SrcPort, got.DstPort)
	}
	if !bytes.Equal(body, payload) {
		t.Error("payload mismatch")
	}
	if int(got.Length) != UDPHeaderLen+len(payload) {
		t.Errorf("length = %d", got.Length)
	}
}

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	u := UDPHeader{SrcPort: 1, DstPort: 2}
	seg, _ := u.Marshal(nil, tSrc, tDst, []byte("hello, world"))
	for _, bit := range []int{0, 3, 9, len(seg) - 1} {
		bad := append([]byte(nil), seg...)
		bad[bit] ^= 0x40
		if _, _, err := ParseUDP(bad, tSrc, tDst); err == nil {
			t.Errorf("corruption at byte %d undetected", bit)
		}
	}
}

func TestUDPChecksumBindsAddresses(t *testing.T) {
	u := UDPHeader{SrcPort: 1, DstPort: 2}
	seg, _ := u.Marshal(nil, tSrc, tDst, []byte("x"))
	// Same bytes parsed against a different pseudo-header must fail: the
	// checksum covers src/dst addresses.
	if _, _, err := ParseUDP(seg, tSrc, MustParseAddr("10.9.8.8")); err == nil {
		t.Error("checksum did not bind destination address")
	}
}

func TestUDPZeroChecksumAccepted(t *testing.T) {
	u := UDPHeader{SrcPort: 7, DstPort: 9}
	seg, _ := u.Marshal(nil, tSrc, tDst, []byte("abc"))
	seg[6], seg[7] = 0, 0 // RFC 768: zero means "no checksum"
	if _, _, err := ParseUDP(seg, tSrc, tDst); err != nil {
		t.Errorf("zero checksum rejected: %v", err)
	}
}

func TestUDPAllOnesChecksumRule(t *testing.T) {
	// Find a payload whose computed checksum is zero; RFC 768 requires it
	// be transmitted as 0xFFFF. Construct directly: checksum of the
	// segment+pseudo-header must be 0 → brute-force a two-byte payload.
	for x := 0; x < 1<<16; x++ {
		u := UDPHeader{SrcPort: 0, DstPort: 0}
		payload := []byte{byte(x >> 8), byte(x)}
		seg, err := u.Marshal(nil, tSrc, tDst, payload)
		if err != nil {
			t.Fatal(err)
		}
		ck := uint16(seg[6])<<8 | uint16(seg[7])
		if ck == 0 {
			t.Fatal("marshalled checksum must never be zero")
		}
		if ck == 0xFFFF {
			// Verify it still parses.
			if _, _, err := ParseUDP(seg, tSrc, tDst); err != nil {
				t.Fatalf("all-ones checksum rejected: %v", err)
			}
			return
		}
	}
	t.Skip("no zero-checksum payload found in search space")
}

func TestUDPTruncated(t *testing.T) {
	if _, _, err := ParseUDP([]byte{1, 2, 3}, tSrc, tDst); err == nil {
		t.Error("want truncation error")
	}
	// Length field larger than the segment.
	u := UDPHeader{SrcPort: 5, DstPort: 6}
	seg, _ := u.Marshal(nil, tSrc, tDst, []byte("abcdef"))
	seg[4], seg[5] = 0xFF, 0xFF
	if _, _, err := ParseUDP(seg, tSrc, tDst); err == nil {
		t.Error("want bad length error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	hdr := TCPHeader{
		SrcPort: 44000,
		DstPort: 80,
		Seq:     0xDEADBEEF,
		Ack:     0x01020304,
		Flags:   TCPSyn | TCPEce | TCPCwr,
		Window:  65535,
		Options: MSSOption(1460),
	}
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	seg, err := hdr.Marshal(nil, tSrc, tDst, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, body, err := ParseTCP(seg, tSrc, tDst)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != hdr.SrcPort || got.DstPort != hdr.DstPort ||
		got.Seq != hdr.Seq || got.Ack != hdr.Ack || got.Flags != hdr.Flags ||
		got.Window != hdr.Window {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(body, payload) {
		t.Error("payload mismatch")
	}
	if !bytes.Equal(got.Options, MSSOption(1460)) {
		t.Errorf("options = %x, want the 1460-byte MSS option", got.Options)
	}
}

func TestTCPEcnSetupPredicates(t *testing.T) {
	cases := []struct {
		flags   uint8
		syn     bool
		synack  bool
		comment string
	}{
		{TCPSyn | TCPEce | TCPCwr, true, false, "ECN-setup SYN"},
		{TCPSyn, false, false, "plain SYN"},
		{TCPSyn | TCPEce, false, false, "SYN+ECE only is not ECN-setup"},
		{TCPSyn | TCPAck | TCPEce, false, true, "ECN-setup SYN-ACK"},
		{TCPSyn | TCPAck, false, false, "plain SYN-ACK"},
		{TCPSyn | TCPAck | TCPEce | TCPCwr, false, false, "SYN-ACK with CWR is not ECN-setup"},
		{TCPSyn | TCPAck | TCPEce | TCPCwr | TCPFin, false, false, "junk flags"},
	}
	for _, c := range cases {
		h := TCPHeader{Flags: c.flags}
		if h.IsECNSetupSYN() != c.syn {
			t.Errorf("%s: IsECNSetupSYN = %v", c.comment, h.IsECNSetupSYN())
		}
		if h.IsECNSetupSYNACK() != c.synack {
			t.Errorf("%s: IsECNSetupSYNACK = %v", c.comment, h.IsECNSetupSYNACK())
		}
	}
}

func TestTCPChecksumDetectsCorruption(t *testing.T) {
	hdr := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPAck}
	seg, _ := hdr.Marshal(nil, tSrc, tDst, []byte("payload"))
	bad := append([]byte(nil), seg...)
	bad[13] ^= TCPEce // flip a flag: must be detected
	if _, _, err := ParseTCP(bad, tSrc, tDst); err == nil {
		t.Error("flag corruption undetected")
	}
}

func TestTCPOptionPadding(t *testing.T) {
	hdr := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn, Options: []byte{2, 4, 5}}
	// 3 option bytes must pad to 4; data offset 6 words.
	seg, err := hdr.Marshal(nil, tSrc, tDst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != 24 {
		t.Fatalf("segment length = %d, want 24", len(seg))
	}
	if seg[12]>>4 != 6 {
		t.Errorf("data offset = %d words", seg[12]>>4)
	}
}

func TestTCPOptionsTooLong(t *testing.T) {
	hdr := TCPHeader{Options: make([]byte, 44)}
	if _, err := hdr.Marshal(nil, tSrc, tDst, nil); err == nil {
		t.Error("want options-too-long error")
	}
}

// Property: TCP headers round-trip through marshal/parse.
func TestTCPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, plen uint8) bool {
		hdr := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: win}
		payload := make([]byte, plen)
		seg, err := hdr.Marshal(nil, tSrc, tDst, payload)
		if err != nil {
			return false
		}
		got, body, err := ParseTCP(seg, tSrc, tDst)
		if err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == flags && got.Window == win &&
			len(body) == int(plen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseTransportNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 80)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		ParseUDP(buf[:n], tSrc, tDst)
		ParseTCP(buf[:n], tSrc, tDst)
		ParseICMP(buf[:n])
	}
}

func TestFlagNames(t *testing.T) {
	if s := FlagNames(TCPSyn | TCPEce | TCPCwr); s != "SYN|ECE|CWR" {
		t.Errorf("FlagNames = %q", s)
	}
	if s := FlagNames(0); s != "none" {
		t.Errorf("FlagNames(0) = %q", s)
	}
}
