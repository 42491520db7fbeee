package packet

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ecn"
)

// fuzzSeedWires builds the seed corpus: one valid datagram per
// transport, plus variants exercising ECN codepoints and TCP options.
func fuzzSeedWires(tb testing.TB) [][]byte {
	tb.Helper()
	src := MustParseAddr("192.0.2.1")
	dst := MustParseAddr("198.51.100.7")
	var wires [][]byte

	udp, err := BuildUDP(src, dst, 40000, 123, 64, ecn.ECT0, 7, []byte("ntp-ish payload"))
	if err != nil {
		tb.Fatal(err)
	}
	wires = append(wires, udp)

	tcp, err := BuildTCP(src, dst, &TCPHeader{
		SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: TCPSyn | TCPEce | TCPCwr, Window: 65535,
		Options: MSSOption(1460),
	}, 64, ecn.NotECT, 8, nil)
	if err != nil {
		tb.Fatal(err)
	}
	wires = append(wires, tcp)

	data, err := BuildTCP(src, dst, &TCPHeader{
		SrcPort: 49152, DstPort: 80, Seq: 1001, Ack: 2001,
		Flags: TCPAck | TCPPsh, Window: 65535,
	}, 64, ecn.CE, 9, []byte("GET / HTTP/1.1\r\n\r\n"))
	if err != nil {
		tb.Fatal(err)
	}
	wires = append(wires, data)

	icmp, err := BuildICMP(dst, src, 64, 10, NewTimeExceeded(udp))
	if err != nil {
		tb.Fatal(err)
	}
	wires = append(wires, icmp)
	return wires
}

// FuzzWireRoundTrip feeds arbitrary bytes through the parser and, for
// every input that parses as a valid datagram, checks two properties:
//
//   - Wire mutation equivalence: the RFC 1624 incremental checksum
//     updates used by CE re-marking (SetWireECN) and TTL decrement
//     agree byte-for-byte with a full header recompute.
//   - Round trip: re-serializing the parsed headers over pooled
//     buffers reproduces the original wire bytes (for inputs in the
//     canonical form the simulator emits: DF flag, no fragmentation,
//     DSCP 0, and a present transport checksum).
//
// Run with `go test -fuzz=FuzzWireRoundTrip ./internal/packet` to
// explore; the seed corpus runs on every plain `go test`.
func FuzzWireRoundTrip(f *testing.F) {
	for _, w := range fuzzSeedWires(f) {
		f.Add(w)
	}
	f.Add([]byte{0x45, 0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		ip, body, err := ParseIPv4(data)
		if err != nil {
			return
		}
		wire := data[:ip.TotalLen]

		checkMarkEquivalence(t, wire)
		checkTTLEquivalence(t, wire)

		// Round-trip only canonical-form packets: the transport
		// builders emit DF + no fragments + DSCP 0 (ICMP: no flags at
		// all) — other inputs are valid wire but cannot be reproduced
		// by Build* by construction.
		if ip.FragOff != 0 || ip.TOS&^0x03 != 0 {
			return
		}
		switch {
		case ip.Protocol == ProtoUDP && ip.Flags == FlagDF:
			roundTripUDP(t, ip, body, wire)
		case ip.Protocol == ProtoTCP && ip.Flags == FlagDF:
			roundTripTCP(t, ip, body, wire)
		case ip.Protocol == ProtoICMP && ip.Flags == 0:
			roundTripICMP(t, ip, body, wire)
		}
	})
}

// checkMarkEquivalence asserts SetWireECN's incremental checksum
// matches a full recompute for every codepoint.
func checkMarkEquivalence(t *testing.T, wire []byte) {
	for _, cp := range []ecn.Codepoint{ecn.CE, ecn.ECT0, ecn.ECT1, ecn.NotECT} {
		inc := append([]byte(nil), wire...)
		if err := SetWireECN(inc, cp); err != nil {
			t.Fatalf("SetWireECN(%v): %v", cp, err)
		}
		full := append([]byte(nil), wire...)
		full[1] = ecn.SetTOS(full[1], cp)
		binary.BigEndian.PutUint16(full[10:], 0)
		binary.BigEndian.PutUint16(full[10:], Checksum(full[:IPv4HeaderLen]))
		if !bytes.Equal(inc, full) {
			t.Errorf("SetWireECN(%v): incremental %x != full recompute %x", cp, inc[:IPv4HeaderLen], full[:IPv4HeaderLen])
		}
		if Checksum(inc[:IPv4HeaderLen]) != 0 {
			t.Errorf("SetWireECN(%v): resulting header checksum invalid", cp)
		}
	}
}

// checkTTLEquivalence asserts DecrementWireTTL's incremental checksum
// matches a full recompute.
func checkTTLEquivalence(t *testing.T, wire []byte) {
	if wire[8] == 0 {
		return
	}
	inc := append([]byte(nil), wire...)
	if _, err := DecrementWireTTL(inc); err != nil {
		t.Fatalf("DecrementWireTTL: %v", err)
	}
	full := append([]byte(nil), wire...)
	full[8]--
	binary.BigEndian.PutUint16(full[10:], 0)
	binary.BigEndian.PutUint16(full[10:], Checksum(full[:IPv4HeaderLen]))
	if !bytes.Equal(inc, full) {
		t.Errorf("DecrementWireTTL: incremental %x != full recompute %x", inc[:IPv4HeaderLen], full[:IPv4HeaderLen])
	}
}

func roundTripUDP(t *testing.T, ip IPv4Header, body, wire []byte) {
	u, payload, err := ParseUDP(body, ip.Src, ip.Dst)
	if err != nil {
		return
	}
	// Zero checksum means "no checksum" (RFC 768); Build always computes
	// one, so those datagrams cannot round-trip bit-exactly. Trailing
	// bytes beyond the UDP length are likewise not reproduced.
	if binary.BigEndian.Uint16(body[6:]) == 0 || int(u.Length) != len(body) {
		return
	}
	bf, err := BuildUDPBuf(ip.Src, ip.Dst, u.SrcPort, u.DstPort, ip.TTL, ip.ECN(), ip.ID, payload)
	if err != nil {
		t.Fatalf("rebuild UDP: %v", err)
	}
	defer bf.Release()
	if !bytes.Equal(bf.Bytes(), wire) {
		t.Errorf("UDP round trip differs:\n got %x\nwant %x", bf.Bytes(), wire)
	}
}

func roundTripTCP(t *testing.T, ip IPv4Header, body, wire []byte) {
	hdr, payload, err := ParseTCP(body, ip.Src, ip.Dst)
	if err != nil {
		return
	}
	// 0xFFFF is the non-canonical ones'-complement encoding of a zero
	// checksum: the verifier accepts it (the segment still sums to
	// zero) but Marshal always emits the canonical 0x0000, so such
	// inputs cannot round-trip bit-exactly. Found by the fuzzer.
	if binary.BigEndian.Uint16(body[16:]) == 0xFFFF {
		return
	}
	// Reserved bits in the data-offset byte (RFC 793: must be zero)
	// are discarded by the parser, so inputs carrying them are not
	// canonical output. Also found by the fuzzer.
	if body[12]&0x0F != 0 {
		return
	}
	bf, err := BuildTCPBuf(ip.Src, ip.Dst, &hdr, ip.TTL, ip.ECN(), ip.ID, payload)
	if err != nil {
		t.Fatalf("rebuild TCP: %v", err)
	}
	defer bf.Release()
	if !bytes.Equal(bf.Bytes(), wire) {
		t.Errorf("TCP round trip differs:\n got %x\nwant %x", bf.Bytes(), wire)
	}
}

func roundTripICMP(t *testing.T, ip IPv4Header, body, wire []byte) {
	msg, err := ParseICMP(body)
	if err != nil {
		return
	}
	// As with TCP, 0xFFFF can be a verifiable non-canonical encoding
	// of a zero ICMP checksum; Marshal emits the canonical form.
	if binary.BigEndian.Uint16(body[2:]) == 0xFFFF {
		return
	}
	// Build* sends ICMP not-ECT with no DF; a DF-flagged or ECN-marked
	// ICMP input (accepted by the parser) is not canonical output.
	bf, err := BuildICMPBuf(ip.Src, ip.Dst, ip.TTL, ip.ID, msg)
	if err != nil {
		t.Fatalf("rebuild ICMP: %v", err)
	}
	defer bf.Release()
	rebuilt := bf.Bytes()
	// BuildICMP emits TOS 0 and no DF; the canonical-form gate above
	// already filtered DSCP, but ECN bits and flags may still differ.
	if ip.ECN() != ecn.NotECT {
		return
	}
	if !bytes.Equal(rebuilt, wire) {
		t.Errorf("ICMP round trip differs:\n got %x\nwant %x", rebuilt, wire)
	}
}

// corpusWires reads the byte-slice inputs the fuzzer has saved under
// testdata/fuzz/<name> (Go's "go test fuzz v1" corpus format), so one
// fuzz target's findings seed another.
func corpusWires(tb testing.TB, name string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var wires [][]byte
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			tb.Fatalf("%s: not a single-[]byte corpus entry", file)
		}
		s, err := strconv.Unquote(lines[1][len("[]byte(") : len(lines[1])-1])
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		wires = append(wires, []byte(s))
	}
	return wires
}

// FuzzPeekMatchesParseIPv4 is the forwarding fast path's differential
// oracle: PeekIPv4 — what a router runs per hop — must accept exactly
// the inputs ParseIPv4 accepts and agree with it on the destination, so
// a datagram is forwarded only if it would have survived the full
// parse. Seeds: the round-trip fuzzer's valid datagrams and saved
// corpus, plus one mutation per check the parser makes.
func FuzzPeekMatchesParseIPv4(f *testing.F) {
	corpus := corpusWires(f, "FuzzWireRoundTrip")
	if len(corpus) == 0 {
		f.Fatal("no saved corpus found under testdata/fuzz/FuzzWireRoundTrip")
	}
	for _, w := range append(fuzzSeedWires(f), corpus...) {
		f.Add(w)
		mutate := func(fn func(b []byte) []byte) { f.Add(fn(append([]byte(nil), w...))) }
		mutate(func(b []byte) []byte { return b[:IPv4HeaderLen-1] })          // truncated header
		mutate(func(b []byte) []byte { return b[:len(b)-1] })                 // shorter than total length
		mutate(func(b []byte) []byte { b[0] = 6<<4 | 5; return b })           // bad version
		mutate(func(b []byte) []byte { b[0] = 4<<4 | 6; return b })           // IHL != 5
		mutate(func(b []byte) []byte { b[2], b[3] = 0, 19; return b })        // total < header
		mutate(func(b []byte) []byte { b[11] ^= 0x01; return b })             // flipped checksum bit
		mutate(func(b []byte) []byte { b[10], b[11] = 0xFF, 0xFF; return b }) // all-ones checksum
		mutate(func(b []byte) []byte { return append(b, 0xAA, 0xBB) })        // trailing bytes past total
	}
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		ip, _, err := ParseIPv4(data)
		dst, ok := PeekIPv4(data)
		if ok != (err == nil) {
			t.Fatalf("PeekIPv4 ok=%v but ParseIPv4 err=%v on %x", ok, err, data)
		}
		if ok && dst != ip.Dst {
			t.Fatalf("PeekIPv4 dst %s, ParseIPv4 dst %s on %x", dst, ip.Dst, data)
		}
		if !ok {
			return
		}
		// What a forwarding router does next must keep the datagram
		// parseable: the TTL decrement's incremental checksum update
		// leaves a header the full parse (run on expiry, for the ICMP
		// quotation) still accepts, with every other field untouched.
		if data[8] == 0 {
			return
		}
		wire := append([]byte(nil), data...)
		if _, err := DecrementWireTTL(wire); err != nil {
			t.Fatal(err)
		}
		after, _, err := ParseIPv4(wire)
		if err != nil {
			t.Fatalf("header no longer parses after TTL decrement: %v", err)
		}
		ip.TTL--
		if after != ip {
			t.Fatalf("TTL decrement changed more than TTL: %v -> %v", ip, after)
		}
	})
}

// FuzzParseICMPQuotation feeds arbitrary bytes to the ICMP parser and
// the quotation extractor. Both return views of their input rather than
// copies, so beyond "never panic" the property is containment: a parsed
// Body is exactly the segment past its 8-byte header, and a quotation's
// transport bytes are exactly the Body past the quoted header — same
// memory, and no capacity reaching beyond the input.
func FuzzParseICMPQuotation(f *testing.F) {
	for _, w := range fuzzSeedWires(f) {
		f.Add(w[IPv4HeaderLen:])
		f.Add(w)
	}
	f.Add([]byte{ICMPTimeExceeded, 0, 0, 0})
	te := NewTimeExceeded(bytes.Repeat([]byte{0x4F}, 64)) // IHL 15: header longer than the quotation
	seg, _ := te.Marshal(nil)
	f.Add(seg)

	f.Fuzz(func(t *testing.T, data []byte) {
		seg := data[:len(data):len(data)]
		msg, err := ParseICMP(seg)
		if err != nil {
			return
		}
		within := func(what string, part, whole []byte, off int) {
			t.Helper()
			if len(part) != len(whole)-off || cap(part) > cap(whole)-off {
				t.Fatalf("%s: len/cap %d/%d, want the input's tail from %d (len/cap %d/%d)",
					what, len(part), cap(part), off, len(whole), cap(whole))
			}
			if len(part) > 0 && &part[0] != &whole[off] {
				t.Fatalf("%s does not alias its input at offset %d", what, off)
			}
		}
		within("ParseICMP body", msg.Body, seg, ICMPHeaderLen)

		quoted, transport, err := msg.Quotation()
		if err != nil {
			return
		}
		if msg.Type != ICMPTimeExceeded && msg.Type != ICMPDestUnreachable {
			t.Fatalf("type %d yielded a quotation", msg.Type)
		}
		ihl := int(msg.Body[0]&0x0F) * 4
		within("quoted transport", transport, msg.Body, ihl)
		if len(transport) < 8 {
			t.Fatalf("quotation accepted with %d transport bytes, RFC 792 wants 8", len(transport))
		}
		if quoted.TOS != msg.Body[1] || quoted.TTL != msg.Body[8] {
			t.Fatal("quoted header fields do not match the body they were read from")
		}
	})
}
