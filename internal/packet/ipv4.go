package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ecn"
)

// IPv4HeaderLen is the length of an IPv4 header without options. The
// measurement system never emits options, matching the probe traffic in
// the study.
const IPv4HeaderLen = 20

// Errors returned by the IPv4 codec.
var (
	ErrTruncated    = errors.New("packet: truncated")
	ErrBadVersion   = errors.New("packet: not an IPv4 packet")
	ErrBadChecksum  = errors.New("packet: header checksum mismatch")
	ErrBadHeaderLen = errors.New("packet: bad header length")
	ErrBadTotalLen  = errors.New("packet: bad total length")
)

// IPv4Header is a decoded IPv4 header. Fields mirror RFC 791. Options are
// not supported: IHL is always 5.
type IPv4Header struct {
	TOS      uint8 // DSCP (high 6 bits) + ECN (low 2 bits)
	ID       uint16
	Flags    uint8  // 3 bits: reserved, DF, MF
	FragOff  uint16 // 13-bit fragment offset, in 8-byte units
	TTL      uint8
	Protocol Protocol
	Src      Addr
	Dst      Addr
	// TotalLen is filled in by Marshal from the payload length and by the
	// parser from the wire; it is the length of header plus payload.
	TotalLen uint16
}

// IPv4 flag bits.
const (
	FlagDF = 0b010 // don't fragment
	FlagMF = 0b001 // more fragments
)

// ECN returns the ECN codepoint carried in the TOS byte.
func (h *IPv4Header) ECN() ecn.Codepoint { return ecn.FromTOS(h.TOS) }

// Marshal appends the 20-byte header for a payload of length payloadLen to
// b, computing the header checksum, and returns the extended slice. The
// header is serialized directly into the destination: when b has spare
// capacity (a pooled buffer), Marshal allocates nothing.
func (h *IPv4Header) Marshal(b []byte, payloadLen int) ([]byte, error) {
	total := IPv4HeaderLen + payloadLen
	if total > 0xFFFF {
		return nil, fmt.Errorf("%w: datagram %d bytes", ErrBadTotalLen, total)
	}
	b = growSlice(b, IPv4HeaderLen)
	h.marshalInto(b[len(b)-IPv4HeaderLen:], uint16(total))
	return b, nil
}

// marshalInto writes the header into hdr, which must be exactly
// IPv4HeaderLen bytes. Every byte is overwritten, so hdr may be
// recycled pool memory.
func (h *IPv4Header) marshalInto(hdr []byte, total uint16) {
	hdr[0] = 4<<4 | 5 // version 4, IHL 5
	hdr[1] = h.TOS
	binary.BigEndian.PutUint16(hdr[2:], total)
	binary.BigEndian.PutUint16(hdr[4:], h.ID)
	binary.BigEndian.PutUint16(hdr[6:], uint16(h.Flags)<<13|h.FragOff&0x1FFF)
	hdr[8] = h.TTL
	hdr[9] = uint8(h.Protocol)
	// checksum at 10:12 computed over the header with the field zeroed
	hdr[10], hdr[11] = 0, 0
	copy(hdr[12:16], h.Src[:])
	copy(hdr[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr[:IPv4HeaderLen]))
}

// ParseIPv4 decodes and validates an IPv4 header from wire bytes,
// returning the header and its payload (a sub-slice of data, not a copy).
// The header checksum is verified; the caller sees only intact packets, as
// a real IP stack would.
func ParseIPv4(data []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(data) < IPv4HeaderLen {
		return h, nil, fmt.Errorf("%w: IPv4 header (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return h, nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl != IPv4HeaderLen {
		return h, nil, fmt.Errorf("%w: IHL %d (options unsupported)", ErrBadHeaderLen, ihl)
	}
	total := int(binary.BigEndian.Uint16(data[2:]))
	if total < ihl || total > len(data) {
		return h, nil, fmt.Errorf("%w: total %d of %d available", ErrBadTotalLen, total, len(data))
	}
	if !headerChecksumOK(data) {
		return h, nil, ErrBadChecksum
	}
	h.TOS = data[1]
	h.TotalLen = uint16(total)
	h.ID = binary.BigEndian.Uint16(data[4:])
	flagsFrag := binary.BigEndian.Uint16(data[6:])
	h.Flags = uint8(flagsFrag >> 13)
	h.FragOff = flagsFrag & 0x1FFF
	h.TTL = data[8]
	h.Protocol = Protocol(data[9])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	return h, data[ihl:total], nil
}

// PeekIPv4 is the forwarding plane's view of a datagram: it applies every
// check ParseIPv4 makes — length, version 4, IHL 5, 20 ≤ total length ≤
// len(data), header checksum — reading fixed header offsets, and returns
// the destination address without building an IPv4Header. ok is true for
// exactly the inputs ParseIPv4 accepts (FuzzPeekMatchesParseIPv4 holds
// the two together); a router that needs more than dst — the source and
// protocol for an ICMP error — runs the full parse.
func PeekIPv4(data []byte) (dst Addr, ok bool) {
	if len(data) < IPv4HeaderLen || data[0] != 4<<4|5 {
		return dst, false
	}
	hdr := data[:IPv4HeaderLen]
	if total := int(binary.BigEndian.Uint16(hdr[2:])); total < IPv4HeaderLen || total > len(data) {
		return dst, false
	}
	if !headerChecksumOK(hdr) {
		return dst, false
	}
	return Addr(hdr[16:20]), true
}

// SetWireECN rewrites the ECN bits of a serialized IPv4 packet in place
// and fixes the header checksum with an RFC 1624 incremental update.
// This is the operation an ECN-bleaching middlebox (or a CE-marking AQM
// queue) performs on transit traffic; it is exported so the simulator's
// middleboxes mutate real wire bytes rather than abstract structs.
func SetWireECN(wire []byte, c ecn.Codepoint) error {
	if len(wire) < IPv4HeaderLen {
		return fmt.Errorf("%w: IPv4 header", ErrTruncated)
	}
	oldWord := binary.BigEndian.Uint16(wire[0:]) // version/IHL + TOS word
	wire[1] = ecn.SetTOS(wire[1], c)
	newWord := binary.BigEndian.Uint16(wire[0:])
	// Apply RFC 1624 eq. 3 even when the word is unchanged: the update
	// then degenerates to HC' = ~(~HC + 0xFFFF), which canonicalises a
	// non-canonical all-ones zero checksum exactly as a full recompute
	// would (a corner the wire fuzzer found).
	ck := binary.BigEndian.Uint16(wire[10:])
	binary.BigEndian.PutUint16(wire[10:], incChecksum(ck, oldWord, newWord))
	return nil
}

// DecrementWireTTL decrements the TTL of a serialized IPv4 packet in place
// and incrementally updates the header checksum (RFC 1624), as a
// forwarding router does. It returns the new TTL.
func DecrementWireTTL(wire []byte) (uint8, error) {
	if len(wire) < IPv4HeaderLen {
		return 0, fmt.Errorf("%w: IPv4 header", ErrTruncated)
	}
	if wire[8] == 0 {
		return 0, errors.New("packet: TTL already zero")
	}
	old := binary.BigEndian.Uint16(wire[8:]) // TTL + protocol word
	wire[8]--
	ck := binary.BigEndian.Uint16(wire[10:])
	binary.BigEndian.PutUint16(wire[10:], incChecksum(ck, old, old-0x0100))
	return wire[8], nil
}

// WireECN reads the ECN codepoint straight from serialized IPv4 bytes.
func WireECN(wire []byte) (ecn.Codepoint, error) {
	if len(wire) < 2 {
		return 0, fmt.Errorf("%w: IPv4 header", ErrTruncated)
	}
	return ecn.FromTOS(wire[1]), nil
}

// String summarises the header for logs and test failures.
func (h *IPv4Header) String() string {
	return fmt.Sprintf("IPv4 %s > %s %s ttl=%d tos=%#02x(%s) len=%d",
		h.Src, h.Dst, h.Protocol, h.TTL, h.TOS, h.ECN(), h.TotalLen)
}
