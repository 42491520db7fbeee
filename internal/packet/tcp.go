package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits, including the two RFC 3168 ECN flags. The study's TCP
// measurement hinges on ECE and CWR: an "ECN-setup SYN" carries SYN|ECE|CWR
// and an "ECN-setup SYN-ACK" carries SYN|ACK|ECE.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	TCPUrg uint8 = 1 << 5
	TCPEce uint8 = 1 << 6 // ECN-Echo
	TCPCwr uint8 = 1 << 7 // Congestion Window Reduced
)

// TCPHeader is a decoded TCP header (RFC 793 with the RFC 3168 flags).
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
	// Options holds raw option bytes; Marshal pads them to a multiple of
	// four. The tcpsim package uses only MSS (kind 2).
	Options []byte
}

// Has reports whether all flag bits in mask are set.
func (t *TCPHeader) Has(mask uint8) bool { return t.Flags&mask == mask }

// IsECNSetupSYN reports whether the header is an RFC 3168 ECN-setup SYN:
// SYN with both ECE and CWR, and no ACK.
func (t *TCPHeader) IsECNSetupSYN() bool {
	return t.Has(TCPSyn|TCPEce|TCPCwr) && t.Flags&TCPAck == 0
}

// IsECNSetupSYNACK reports whether the header is an ECN-setup SYN-ACK:
// SYN|ACK with ECE set and CWR clear.
func (t *TCPHeader) IsECNSetupSYNACK() bool {
	return t.Has(TCPSyn|TCPAck|TCPEce) && t.Flags&TCPCwr == 0
}

// MSSOption encodes a maximum-segment-size option (kind 2, length 4).
func MSSOption(mss uint16) []byte {
	return []byte{2, 4, byte(mss >> 8), byte(mss)}
}

// ParseMSS scans TCP options for an MSS option and returns its value.
func ParseMSS(options []byte) (uint16, bool) {
	for i := 0; i < len(options); {
		kind := options[i]
		switch kind {
		case 0: // end of options
			return 0, false
		case 1: // no-op
			i++
		default:
			if i+1 >= len(options) {
				return 0, false
			}
			l := int(options[i+1])
			if l < 2 || i+l > len(options) {
				return 0, false
			}
			if kind == 2 && l == 4 {
				return binary.BigEndian.Uint16(options[i+2:]), true
			}
			i += l
		}
	}
	return 0, false
}

// Marshal appends the TCP header (with padded options) and payload to b,
// computing the checksum over the pseudo-header, and returns the slice.
func (t *TCPHeader) Marshal(b []byte, src, dst Addr, payload []byte) ([]byte, error) {
	optLen := (len(t.Options) + 3) &^ 3
	hdrLen := TCPHeaderLen + optLen
	if hdrLen > 60 {
		return nil, fmt.Errorf("%w: TCP options %d bytes", ErrBadHeaderLen, len(t.Options))
	}
	segLen := hdrLen + len(payload)
	if segLen > 0xFFFF {
		return nil, fmt.Errorf("%w: TCP segment %d bytes", ErrBadTotalLen, segLen)
	}
	off := len(b)
	b = growSlice(b, segLen)
	seg := b[off:]
	copy(seg[hdrLen:], payload)
	binary.BigEndian.PutUint16(seg[0:], t.SrcPort)
	binary.BigEndian.PutUint16(seg[2:], t.DstPort)
	binary.BigEndian.PutUint32(seg[4:], t.Seq)
	binary.BigEndian.PutUint32(seg[8:], t.Ack)
	seg[12] = uint8(hdrLen/4) << 4
	seg[13] = t.Flags
	binary.BigEndian.PutUint16(seg[14:], t.Window)
	seg[16], seg[17] = 0, 0 // checksum computed with field zeroed
	binary.BigEndian.PutUint16(seg[18:], t.Urgent)
	n := copy(seg[TCPHeaderLen:hdrLen], t.Options)
	for i := TCPHeaderLen + n; i < hdrLen; i++ {
		seg[i] = 0 // options pad to a 4-byte boundary with zeros
	}
	binary.BigEndian.PutUint16(seg[16:], transportChecksum(src, dst, ProtoTCP, seg))
	return b, nil
}

// ParseTCP decodes a TCP header from seg (the IPv4 payload), verifying the
// checksum against the pseudo-header, and returns the header and payload.
// The header's Options, like the payload, alias seg.
func ParseTCP(seg []byte, src, dst Addr) (TCPHeader, []byte, error) {
	var t TCPHeader
	if len(seg) < TCPHeaderLen {
		return t, nil, fmt.Errorf("%w: TCP header (%d bytes)", ErrTruncated, len(seg))
	}
	dataOff := int(seg[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(seg) {
		return t, nil, fmt.Errorf("%w: TCP data offset %d", ErrBadHeaderLen, dataOff)
	}
	// Sum over the whole segment including the checksum field: valid
	// segments fold to zero.
	if transportChecksum(src, dst, ProtoTCP, seg) != 0 {
		return t, nil, fmt.Errorf("%w: TCP", ErrBadChecksum)
	}
	t.SrcPort = binary.BigEndian.Uint16(seg[0:])
	t.DstPort = binary.BigEndian.Uint16(seg[2:])
	t.Seq = binary.BigEndian.Uint32(seg[4:])
	t.Ack = binary.BigEndian.Uint32(seg[8:])
	t.Flags = seg[13]
	t.Window = binary.BigEndian.Uint16(seg[14:])
	t.Urgent = binary.BigEndian.Uint16(seg[18:])
	if dataOff > TCPHeaderLen {
		t.Options = seg[TCPHeaderLen:dataOff]
	}
	return t, seg[dataOff:], nil
}

// FlagNames renders the flag byte as the familiar tcpdump-style list.
func FlagNames(flags uint8) string {
	names := []struct {
		bit  uint8
		name string
	}{
		{TCPSyn, "SYN"}, {TCPAck, "ACK"}, {TCPFin, "FIN"}, {TCPRst, "RST"},
		{TCPPsh, "PSH"}, {TCPUrg, "URG"}, {TCPEce, "ECE"}, {TCPCwr, "CWR"},
	}
	var out []string
	for _, n := range names {
		if flags&n.bit != 0 {
			out = append(out, n.name)
		}
	}
	if len(out) == 0 {
		return "none"
	}
	return strings.Join(out, "|")
}

// String summarises the header.
func (t *TCPHeader) String() string {
	return fmt.Sprintf("TCP %d > %d [%s] seq=%d ack=%d win=%d",
		t.SrcPort, t.DstPort, FlagNames(t.Flags), t.Seq, t.Ack, t.Window)
}
