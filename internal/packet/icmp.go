package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMP types and codes used by the measurement system. Time-exceeded
// messages carry the quotation that the traceroute analysis inspects.
const (
	ICMPEchoReply        uint8 = 0
	ICMPDestUnreachable  uint8 = 3
	ICMPEchoRequest      uint8 = 8
	ICMPTimeExceeded     uint8 = 11
	ICMPCodeTTLExceeded  uint8 = 0 // time exceeded in transit
	ICMPCodePortUnreach  uint8 = 3
	ICMPCodeAdminProhib  uint8 = 13
	ICMPQuotationMinimum       = IPv4HeaderLen + 8
)

// ICMPHeaderLen is the fixed 8-byte ICMP header (type, code, checksum,
// rest-of-header).
const ICMPHeaderLen = 8

// ICMPMessage is a decoded ICMP message. For error messages (time
// exceeded, destination unreachable) Body holds the quotation: the IP
// header plus at least the first 8 bytes of the offending datagram, per
// RFC 792. For echo, Body is the echo payload and Rest carries the
// identifier and sequence number.
//
// Body never owns its bytes. A message from ParseICMP aliases the
// segment it was parsed from, and one from NewTimeExceeded or
// NewDestUnreachable aliases the datagram it quotes; either is good for
// as long as that buffer is, and Marshal copies it into the destination.
// A holder that outlives the buffer copies what it keeps.
type ICMPMessage struct {
	Type uint8
	Code uint8
	Rest uint32 // unused for errors; id<<16|seq for echo
	Body []byte
}

// Marshal appends the ICMP message to b, computing the checksum, and
// returns the extended slice.
func (m *ICMPMessage) Marshal(b []byte) ([]byte, error) {
	off := len(b)
	b = growSlice(b, ICMPHeaderLen+len(m.Body))
	seg := b[off:]
	copy(seg[ICMPHeaderLen:], m.Body)
	seg[0] = m.Type
	seg[1] = m.Code
	seg[2], seg[3] = 0, 0 // checksum computed with field zeroed
	binary.BigEndian.PutUint32(seg[4:], m.Rest)
	binary.BigEndian.PutUint16(seg[2:], Checksum(seg))
	return b, nil
}

// ParseICMP decodes an ICMP message from seg (the IPv4 payload), verifying
// the checksum. The returned Body aliases seg — as ParseUDP's and
// ParseTCP's payloads do — so it is valid only while seg is: under
// netsim.Host.Receive that is until the ICMP handler returns.
func ParseICMP(seg []byte) (ICMPMessage, error) {
	var m ICMPMessage
	if len(seg) < ICMPHeaderLen {
		return m, fmt.Errorf("%w: ICMP header (%d bytes)", ErrTruncated, len(seg))
	}
	if Checksum(seg) != 0 {
		return m, fmt.Errorf("%w: ICMP", ErrBadChecksum)
	}
	m.Type = seg[0]
	m.Code = seg[1]
	m.Rest = binary.BigEndian.Uint32(seg[4:])
	m.Body = seg[ICMPHeaderLen:len(seg):len(seg)]
	return m, nil
}

// Quotation extracts the quoted IPv4 header and the leading bytes of its
// payload from an ICMP error body. This is the heart of the traceroute
// technique used in Section 4.2 of the paper (after Malone & Luckie's
// analysis of ICMP quotations): the sender compares the quoted TOS byte
// with what it originally sent to learn whether a hop upstream of the
// quoting router rewrote the ECN field.
//
// The quoted header's checksum is NOT verified: many routers quote the
// datagram after mutating it (TTL decrement, ECN rewrite) without fixing
// the quoted checksum, and the analysis must accept such quotations.
func (m *ICMPMessage) Quotation() (IPv4Header, []byte, error) {
	if m.Type != ICMPTimeExceeded && m.Type != ICMPDestUnreachable {
		return IPv4Header{}, nil, fmt.Errorf("packet: ICMP type %d carries no quotation", m.Type)
	}
	data := m.Body
	if len(data) < ICMPQuotationMinimum {
		return IPv4Header{}, nil, fmt.Errorf("%w: ICMP quotation (%d bytes)", ErrTruncated, len(data))
	}
	var h IPv4Header
	if v := data[0] >> 4; v != 4 {
		return h, nil, fmt.Errorf("%w: quoted version %d", ErrBadVersion, v)
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || ihl+8 > len(data) {
		return h, nil, fmt.Errorf("%w: quoted IHL %d", ErrBadHeaderLen, ihl)
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	flagsFrag := binary.BigEndian.Uint16(data[6:])
	h.Flags = uint8(flagsFrag >> 13)
	h.FragOff = flagsFrag & 0x1FFF
	h.TTL = data[8]
	h.Protocol = Protocol(data[9])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	return h, data[ihl:], nil
}

// NewTimeExceeded builds the ICMP time-exceeded message a router emits
// when TTL reaches zero: it quotes the IP header and first eight payload
// bytes of the dropped datagram (RFC 792 requires at least eight; we quote
// exactly the minimum, as many routers do). The quotation is a view of
// dropped, not a copy: marshal the message (BuildICMPBuf writes it
// straight into the reply's pooled buffer) before dropped is released or
// rewritten.
func NewTimeExceeded(dropped []byte) ICMPMessage {
	return ICMPMessage{
		Type: ICMPTimeExceeded,
		Code: ICMPCodeTTLExceeded,
		Body: quotation(dropped),
	}
}

// NewDestUnreachable builds an ICMP destination-unreachable message with
// the given code, quoting the offending datagram in place, as
// NewTimeExceeded does.
func NewDestUnreachable(code uint8, dropped []byte) ICMPMessage {
	return ICMPMessage{
		Type: ICMPDestUnreachable,
		Code: code,
		Body: quotation(dropped),
	}
}

// quotation is the part of the offending datagram an error quotes: at
// most header+8 bytes, all of a shorter one.
func quotation(dropped []byte) []byte {
	n := min(len(dropped), ICMPQuotationMinimum)
	return dropped[:n:n]
}

// String summarises the message.
func (m *ICMPMessage) String() string {
	return fmt.Sprintf("ICMP type=%d code=%d body=%dB", m.Type, m.Code, len(m.Body))
}
