package packet

import (
	"testing"
	"testing/quick"

	"repro/internal/ecn"
)

func TestDecodeUDP(t *testing.T) {
	wire, err := BuildUDP(tSrc, tDst, 123, 456, 64, ecn.ECT0, 7, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.UDP == nil || d.TCP != nil || d.ICMP != nil {
		t.Fatal("wrong layer decoded")
	}
	if d.UDP.SrcPort != 123 || string(d.Payload) != "data" {
		t.Errorf("UDP decode: %+v payload=%q", d.UDP, d.Payload)
	}
	if d.IP.ECN() != ecn.ECT0 {
		t.Errorf("ECN = %v", d.IP.ECN())
	}
}

func TestDecodeTCP(t *testing.T) {
	hdr := &TCPHeader{SrcPort: 80, DstPort: 1024, Flags: TCPSyn | TCPAck | TCPEce}
	wire, err := AppendTCP(nil, tDst, tSrc, hdr, 60, ecn.NotECT, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.TCP == nil {
		t.Fatal("TCP layer missing")
	}
	if !d.TCP.IsECNSetupSYNACK() {
		t.Error("ECN-setup SYN-ACK not recognised after wire round trip")
	}
}

func TestDecodeICMP(t *testing.T) {
	inner, _ := BuildUDP(tSrc, tDst, 1, 2, 3, ecn.ECT0, 4, nil)
	wire, err := AppendICMP(nil, tDst, tSrc, 64, 9, NewTimeExceeded(inner))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.ICMP == nil || d.ICMP.Type != ICMPTimeExceeded {
		t.Fatalf("ICMP decode: %+v", d.ICMP)
	}
}

func TestDecodeUnknownProtocol(t *testing.T) {
	ip := IPv4Header{TTL: 64, Protocol: 47 /* GRE */, Src: tSrc, Dst: tDst}
	wire, _ := ip.Marshal(nil, 0)
	if _, err := Decode(wire); err == nil {
		t.Error("unknown protocol must error")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := MustParseAddr("203.0.113.200")
	if a.String() != "203.0.113.200" {
		t.Errorf("String = %q", a.String())
	}
	if AddrFromUint32(a.Uint32()) != a {
		t.Error("Uint32 round trip failed")
	}
	if !AddrFrom4(1, 0, 0, 0).Less(AddrFrom4(2, 0, 0, 0)) {
		t.Error("Less ordering wrong")
	}
	if (Addr{}).IsZero() != true || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if _, err := ParseAddr("not-an-ip"); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := ParseAddr("2001:db8::1"); err == nil {
		t.Error("IPv6 accepted as IPv4")
	}
}

func TestAddrUint32RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool { return AddrFromUint32(v).Uint32() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoUDP.String() != "UDP" || ProtoTCP.String() != "TCP" || ProtoICMP.String() != "ICMP" {
		t.Error("protocol names wrong")
	}
	if Protocol(99).String() == "" {
		t.Error("unknown protocol should stringify")
	}
}
