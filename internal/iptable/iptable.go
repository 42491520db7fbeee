// Package iptable provides IPv4 prefixes and a longest-prefix-match
// table. It is the lookup structure shared by the geo database (prefix →
// location) and the AS mapping (prefix → ASN), mirroring how routing
// registries and GeoIP databases are keyed in the real measurement
// pipeline.
package iptable

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/packet"
)

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr packet.Addr
	Bits int
}

// ParsePrefix parses "a.b.c.d/n" notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("iptable: prefix %q missing mask", s)
	}
	addr, err := packet.ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("iptable: prefix %q has bad mask", s)
	}
	return MakePrefix(addr, bits), nil
}

// MustParsePrefix is ParsePrefix for tables and tests; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// MakePrefix builds a canonical prefix (host bits zeroed).
func MakePrefix(addr packet.Addr, bits int) Prefix {
	return Prefix{Addr: packet.AddrFromUint32(addr.Uint32() & mask(bits)), Bits: bits}
}

func mask(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - bits)
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a packet.Addr) bool {
	return a.Uint32()&mask(p.Bits) == p.Addr.Uint32()
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// Table is a longest-prefix-match map from prefixes to values of type T.
// It keeps one hash map per prefix length and probes from /32 downward,
// which is simple, allocation-light and plenty fast for the few thousand
// prefixes a generated topology produces.
type Table[T any] struct {
	byBits [33]map[uint32]T
	size   int
}

// Insert adds or replaces the value for a prefix.
func (t *Table[T]) Insert(p Prefix, v T) {
	if p.Bits < 0 || p.Bits > 32 {
		panic("iptable: bad prefix length")
	}
	m := t.byBits[p.Bits]
	if m == nil {
		m = make(map[uint32]T)
		t.byBits[p.Bits] = m
	}
	key := p.Addr.Uint32() & mask(p.Bits)
	if _, exists := m[key]; !exists {
		t.size++
	}
	m[key] = v
}

// Reserve sizes the table for n prefixes of length bits, so that
// inserting them allocates once.
func (t *Table[T]) Reserve(bits, n int) {
	if t.byBits[bits] == nil {
		t.byBits[bits] = make(map[uint32]T, n)
	}
}

// Lookup returns the value of the longest prefix containing a.
func (t *Table[T]) Lookup(a packet.Addr) (T, Prefix, bool) {
	v := a.Uint32()
	for bits := 32; bits >= 0; bits-- {
		m := t.byBits[bits]
		if m == nil {
			continue
		}
		key := v & mask(bits)
		if val, ok := m[key]; ok {
			return val, Prefix{Addr: packet.AddrFromUint32(key), Bits: bits}, true
		}
	}
	var zero T
	return zero, Prefix{}, false
}

// Len reports the number of prefixes in the table.
func (t *Table[T]) Len() int { return t.size }
