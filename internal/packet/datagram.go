package packet

import (
	"fmt"

	"repro/internal/ecn"
)

// Datagram is a fully decoded IPv4 datagram: the IP header plus exactly
// one transport layer. It is the unit that hosts and analysis code work
// with; routers work on the raw wire bytes instead.
type Datagram struct {
	IP IPv4Header
	// Exactly one of UDP, TCP, ICMP is non-nil, matching IP.Protocol.
	UDP     *UDPHeader
	TCP     *TCPHeader
	ICMP    *ICMPMessage
	Payload []byte // transport payload (echo body for ICMP errors: quotation)
}

// Decode parses wire bytes into a Datagram. Unknown transports yield an
// error but the IP header is still returned for diagnostic use.
//
// Nothing is copied: Payload, TCP options and the ICMP message's Body
// (the quotation, for errors) all alias wire, whatever the transport. A
// Datagram is good for as long as wire is; a tap or handler that keeps
// one past its call copies the bytes it needs.
func Decode(wire []byte) (Datagram, error) {
	var d Datagram
	ip, body, err := ParseIPv4(wire)
	if err != nil {
		return d, err
	}
	d.IP = ip
	switch ip.Protocol {
	case ProtoUDP:
		u, payload, err := ParseUDP(body, ip.Src, ip.Dst)
		if err != nil {
			return d, err
		}
		d.UDP = &u
		d.Payload = payload
	case ProtoTCP:
		t, payload, err := ParseTCP(body, ip.Src, ip.Dst)
		if err != nil {
			return d, err
		}
		d.TCP = &t
		d.Payload = payload
	case ProtoICMP:
		m, err := ParseICMP(body)
		if err != nil {
			return d, err
		}
		d.ICMP = &m
		d.Payload = m.Body
	default:
		return d, fmt.Errorf("packet: unsupported protocol %v", ip.Protocol)
	}
	return d, nil
}

// AppendUDP serializes a complete IPv4+UDP datagram into b's spare
// capacity and returns the extended slice. With enough capacity (a
// pooled buffer) it allocates nothing: both headers are written
// directly into the destination.
func AppendUDP(b []byte, src, dst Addr, srcPort, dstPort uint16, ttl uint8, cp ecn.Codepoint, id uint16, payload []byte) ([]byte, error) {
	ip := IPv4Header{
		TOS:      ecn.SetTOS(0, cp),
		ID:       id,
		Flags:    FlagDF,
		TTL:      ttl,
		Protocol: ProtoUDP,
		Src:      src,
		Dst:      dst,
	}
	b, err := ip.Marshal(b, UDPHeaderLen+len(payload))
	if err != nil {
		return nil, err
	}
	udp := UDPHeader{SrcPort: srcPort, DstPort: dstPort}
	return udp.Marshal(b, src, dst, payload)
}

// BuildUDP serializes a complete IPv4+UDP datagram.
func BuildUDP(src, dst Addr, srcPort, dstPort uint16, ttl uint8, cp ecn.Codepoint, id uint16, payload []byte) ([]byte, error) {
	b := make([]byte, 0, IPv4HeaderLen+UDPHeaderLen+len(payload))
	return AppendUDP(b, src, dst, srcPort, dstPort, ttl, cp, id, payload)
}

// BuildUDPBuf serializes a complete IPv4+UDP datagram into a pooled
// buffer. The caller owns the returned Buf's reference.
func BuildUDPBuf(src, dst Addr, srcPort, dstPort uint16, ttl uint8, cp ecn.Codepoint, id uint16, payload []byte) (*Buf, error) {
	bf := NewBuf()
	b, err := AppendUDP(bf.b, src, dst, srcPort, dstPort, ttl, cp, id, payload)
	if err != nil {
		bf.Release()
		return nil, err
	}
	bf.b = b
	return bf, nil
}

// AppendTCP serializes a complete IPv4+TCP datagram into b's spare
// capacity; like AppendUDP it is allocation-free given capacity.
func AppendTCP(b []byte, src, dst Addr, hdr *TCPHeader, ttl uint8, cp ecn.Codepoint, id uint16, payload []byte) ([]byte, error) {
	segLen := TCPHeaderLen + (len(hdr.Options)+3)&^3 + len(payload)
	ip := IPv4Header{
		TOS:      ecn.SetTOS(0, cp),
		ID:       id,
		Flags:    FlagDF,
		TTL:      ttl,
		Protocol: ProtoTCP,
		Src:      src,
		Dst:      dst,
	}
	b, err := ip.Marshal(b, segLen)
	if err != nil {
		return nil, err
	}
	return hdr.Marshal(b, src, dst, payload)
}

// BuildTCPBuf serializes a complete IPv4+TCP datagram into a pooled
// buffer. The caller owns the returned Buf's reference.
func BuildTCPBuf(src, dst Addr, hdr *TCPHeader, ttl uint8, cp ecn.Codepoint, id uint16, payload []byte) (*Buf, error) {
	bf := NewBuf()
	b, err := AppendTCP(bf.b, src, dst, hdr, ttl, cp, id, payload)
	if err != nil {
		bf.Release()
		return nil, err
	}
	bf.b = b
	return bf, nil
}

// AppendICMP serializes a complete IPv4+ICMP datagram into b's spare
// capacity. ICMP messages are always sent not-ECT, as real stacks do
// for control traffic.
func AppendICMP(b []byte, src, dst Addr, ttl uint8, id uint16, msg ICMPMessage) ([]byte, error) {
	ip := IPv4Header{
		ID:       id,
		TTL:      ttl,
		Protocol: ProtoICMP,
		Src:      src,
		Dst:      dst,
	}
	b, err := ip.Marshal(b, ICMPHeaderLen+len(msg.Body))
	if err != nil {
		return nil, err
	}
	return msg.Marshal(b)
}

// BuildICMPBuf serializes a complete IPv4+ICMP datagram into a pooled
// buffer. The caller owns the returned Buf's reference.
func BuildICMPBuf(src, dst Addr, ttl uint8, id uint16, msg ICMPMessage) (*Buf, error) {
	bf := NewBuf()
	b, err := AppendICMP(bf.b, src, dst, ttl, id, msg)
	if err != nil {
		bf.Release()
		return nil, err
	}
	bf.b = b
	return bf, nil
}
