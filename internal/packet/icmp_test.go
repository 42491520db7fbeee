package packet

import (
	"bytes"
	"testing"

	"repro/internal/ecn"
)

func TestICMPRoundTrip(t *testing.T) {
	m := ICMPMessage{Type: ICMPEchoRequest, Rest: 0x12340001, Body: []byte("ping body")}
	seg, err := m.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseICMP(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Code != m.Code || got.Rest != m.Rest ||
		!bytes.Equal(got.Body, m.Body) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestICMPChecksum(t *testing.T) {
	m := ICMPMessage{Type: ICMPTimeExceeded}
	seg, _ := m.Marshal(nil)
	seg[1] ^= 0xFF
	if _, err := ParseICMP(seg); err == nil {
		t.Error("corruption undetected")
	}
}

// The central traceroute mechanism: a router builds a time-exceeded
// message quoting a dropped ECT(0) datagram; the sender recovers the
// quoted TOS byte and detects whether the mark survived to that hop.
func TestTimeExceededQuotationCarriesECN(t *testing.T) {
	probe, err := BuildUDP(
		MustParseAddr("192.0.2.1"), MustParseAddr("203.0.113.9"),
		33434, 33435, 1, ecn.ECT0, 777, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}

	te := NewTimeExceeded(probe)
	seg, _ := te.Marshal(nil)
	parsed, err := ParseICMP(seg)
	if err != nil {
		t.Fatal(err)
	}
	quoted, transport, err := parsed.Quotation()
	if err != nil {
		t.Fatal(err)
	}
	if quoted.ECN() != ecn.ECT0 {
		t.Errorf("quoted ECN = %v, want ECT(0)", quoted.ECN())
	}
	if quoted.Protocol != ProtoUDP {
		t.Errorf("quoted protocol = %v", quoted.Protocol)
	}
	if quoted.ID != 777 {
		t.Errorf("quoted ID = %d", quoted.ID)
	}
	if len(transport) != 8 {
		t.Errorf("quoted transport bytes = %d, want 8", len(transport))
	}
	// First 8 transport bytes are the UDP header: ports recoverable.
	srcPort := uint16(transport[0])<<8 | uint16(transport[1])
	if srcPort != 33434 {
		t.Errorf("quoted src port = %d", srcPort)
	}
}

// A middlebox bleaches the probe before the quoting router: the quotation
// must reveal not-ECT even though the sender transmitted ECT(0).
func TestQuotationAfterBleaching(t *testing.T) {
	probe, _ := BuildUDP(
		MustParseAddr("192.0.2.1"), MustParseAddr("203.0.113.9"),
		33434, 33435, 5, ecn.ECT0, 1, nil)
	if err := SetWireECN(probe, ecn.NotECT); err != nil {
		t.Fatal(err)
	}
	te := NewTimeExceeded(probe)
	quoted, _, err := te.Quotation()
	if err != nil {
		t.Fatal(err)
	}
	if got := ecn.Classify(ecn.ECT0, quoted.ECN()); got != ecn.Bleached {
		t.Errorf("transition = %v, want bleached", got)
	}
}

// Routers commonly quote the datagram after decrementing TTL without
// fixing the quoted checksum; Quotation must tolerate that.
func TestQuotationToleratesStaleChecksum(t *testing.T) {
	probe, _ := BuildUDP(
		MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"),
		1000, 2000, 4, ecn.ECT0, 42, nil)
	probe[8]-- // TTL decrement without checksum fix: quoted bytes now "broken"
	te := NewTimeExceeded(probe)
	if _, _, err := te.Quotation(); err != nil {
		t.Errorf("stale quoted checksum rejected: %v", err)
	}
}

func TestQuotationErrors(t *testing.T) {
	echo := ICMPMessage{Type: ICMPEchoReply}
	if _, _, err := echo.Quotation(); err == nil {
		t.Error("echo must not have a quotation")
	}
	short := ICMPMessage{Type: ICMPTimeExceeded, Body: []byte{1, 2, 3}}
	if _, _, err := short.Quotation(); err == nil {
		t.Error("short quotation accepted")
	}
	v6 := ICMPMessage{Type: ICMPTimeExceeded, Body: make([]byte, 28)}
	v6.Body[0] = 6 << 4
	if _, _, err := v6.Quotation(); err == nil {
		t.Error("non-IPv4 quotation accepted")
	}
}

func TestClampQuotation(t *testing.T) {
	long := make([]byte, 100)
	if n := len(NewTimeExceeded(long).Body); n != ICMPQuotationMinimum {
		t.Errorf("quotation = %d bytes, want %d", n, ICMPQuotationMinimum)
	}
	short := make([]byte, 10)
	if n := len(NewDestUnreachable(ICMPCodePortUnreach, short).Body); n != 10 {
		t.Errorf("short quotation = %d bytes, want 10", n)
	}
}

// The quotation is taken in place: an error message's Body is a clipped
// view of the offending datagram — no copy until Marshal writes it into
// the reply — and the reply, once built, no longer depends on the
// datagram it quotes.
func TestQuotationInPlace(t *testing.T) {
	dropped, _ := BuildUDP(
		MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"),
		1000, 2000, 1, ecn.ECT0, 42, []byte("a payload past the quoted eight bytes"))
	for _, msg := range []ICMPMessage{
		NewTimeExceeded(dropped),
		NewDestUnreachable(ICMPCodePortUnreach, dropped),
	} {
		if &msg.Body[0] != &dropped[0] {
			t.Fatal("quotation is a copy, want a view of the dropped datagram")
		}
		if len(msg.Body) != ICMPQuotationMinimum || cap(msg.Body) != ICMPQuotationMinimum {
			t.Fatalf("quotation len/cap = %d/%d, want both %d: an append must not reach the datagram",
				len(msg.Body), cap(msg.Body), ICMPQuotationMinimum)
		}
		bf, err := BuildICMPBuf(MustParseAddr("10.9.9.9"), MustParseAddr("10.0.0.1"), 64, 7, msg)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), bf.Bytes()...)
		saved := append([]byte(nil), dropped...)
		for i := range dropped {
			dropped[i] = 0xEE
		}
		if !bytes.Equal(bf.Bytes(), want) {
			t.Error("rewriting the dropped datagram changed the reply already built from it")
		}
		copy(dropped, saved)
		bf.Release()
	}
}

// ParseICMP's Body is a view too: of the segment, from the end of the
// ICMP header to the end of the segment and no further.
func TestParseICMPAliasesSegment(t *testing.T) {
	m := ICMPMessage{Type: ICMPEchoRequest, Rest: 1, Body: []byte("ping body")}
	seg, _ := m.Marshal(make([]byte, 0, 64)) // spare capacity behind the segment
	got, err := ParseICMP(seg)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Body[0] != &seg[ICMPHeaderLen] {
		t.Fatal("parsed body is a copy, want a view of the segment")
	}
	if cap(got.Body) != len(got.Body) {
		t.Errorf("parsed body cap %d > len %d: it reaches past the segment", cap(got.Body), len(got.Body))
	}
}

func TestBuildICMPIsNotECT(t *testing.T) {
	msg := NewTimeExceeded(make([]byte, 28))
	wire, err := BuildICMP(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"), 64, 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := WireECN(wire)
	if cp != ecn.NotECT {
		t.Errorf("ICMP sent with %v, control traffic must be not-ECT", cp)
	}
}
