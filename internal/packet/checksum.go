package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet checksum (RFC 1071) over data: the ones'
// complement of the ones'-complement sum of the data taken as big-endian
// 16-bit words, with a trailing odd byte padded with zero.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumWords(0, data))
}

// sumWords folds data into an ongoing ones'-complement accumulator and
// returns it reduced to 16 bits, so callers may keep adding words to
// the result. It sums eight bytes per step into a 64-bit accumulator
// with end-around carry (2^16 ≡ 1 mod 0xFFFF, so a big-endian 64-bit
// load is worth the sum of its four 16-bit words, and a carry out of
// bit 63 is worth 1); a trailing odd byte is padded with zero, as
// RFC 1071 prescribes. End-around addition never turns a non-zero sum
// into zero, so the result is 0 only when sum and every data byte are —
// the one distinction finishChecksum's fold preserves (0 vs 0xFFFF).
func sumWords(sum uint32, data []byte) uint32 {
	acc, carry := uint64(sum), uint64(0)
	for len(data) >= 32 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[8:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[16:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// At most seven bytes remain: 4 + 2 + 1, none of which can carry
	// out of 64 bits on its own, so one shared end-around add suffices.
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0]) << 8
	}
	acc, carry = bits.Add64(acc, tail, carry)
	acc, carry = bits.Add64(acc, 0, carry)
	acc += carry
	acc = acc>>32 + acc&0xFFFFFFFF // ≤ 33 bits
	acc = acc>>32 + acc&0xFFFFFFFF // ≤ 32 bits
	acc = acc>>16 + acc&0xFFFF     // ≤ 17 bits
	acc = acc>>16 + acc&0xFFFF     // ≤ 16 bits
	return uint32(acc)
}

// headerChecksumOK verifies an option-less IPv4 header's checksum: the
// ones'-complement sum of its ten words, checksum field included, must
// be 0xFFFF. Five 32-bit loads cannot overflow 64 bits, so the sum needs
// no carry handling until the final fold; hdr must hold IPv4HeaderLen
// bytes. Equivalent to Checksum(hdr[:IPv4HeaderLen]) == 0.
func headerChecksumOK(hdr []byte) bool {
	_ = hdr[IPv4HeaderLen-1]
	s := uint64(binary.BigEndian.Uint32(hdr[0:])) + uint64(binary.BigEndian.Uint32(hdr[4:])) +
		uint64(binary.BigEndian.Uint32(hdr[8:])) + uint64(binary.BigEndian.Uint32(hdr[12:])) +
		uint64(binary.BigEndian.Uint32(hdr[16:]))
	s = s>>32 + s&0xFFFFFFFF // < 2^32 + 5
	s = s>>16 + s&0xFFFF     // ≤ 0x1FFFF
	s = s>>16 + s&0xFFFF     // ≤ 0x10000
	s = s>>16 + s&0xFFFF     // ≤ 0xFFFF
	return s == 0xFFFF
}

// finishChecksum folds the carries and complements the accumulator.
func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// incChecksum updates an Internet checksum after one 16-bit header word
// changed from old to new, per RFC 1624 equation 3:
//
//	HC' = ~(~HC + ~m + m')
//
// Equation 3 (rather than the withdrawn RFC 1141 form) is required for
// correctness when the updated sum is zero; the wire fuzz tests check
// equivalence against a full recompute for every mutation the
// simulator performs.
func incChecksum(hc, oldWord, newWord uint16) uint16 {
	sum := uint32(^hc&0xFFFF) + uint32(^oldWord&0xFFFF) + uint32(newWord)
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum seeds a checksum accumulator with the IPv4 pseudo-header
// used by the UDP and TCP checksums (RFC 768, RFC 793): source address,
// destination address, zero, protocol, and transport segment length.
func pseudoHeaderSum(src, dst Addr, proto Protocol, segLen int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(segLen)
	return sum
}

// transportChecksum computes the checksum of a UDP datagram or TCP segment
// including its pseudo-header. seg must have its checksum field zeroed.
func transportChecksum(src, dst Addr, proto Protocol, seg []byte) uint16 {
	return finishChecksum(sumWords(pseudoHeaderSum(src, dst, proto, len(seg)), seg))
}
