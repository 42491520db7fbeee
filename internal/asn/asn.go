// Package asn maps IP addresses to autonomous system numbers, replacing
// the traceroute-to-AS mapping step of the study's Section 4.2 analysis.
//
// The paper inferred AS numbers from traceroute IP addresses "subject to
// the usual limitations of IP to AS mapping accuracy" (citing Zhang et
// al.). The topology generator emits an authoritative table here, plus —
// to preserve the stated uncertainty — border links whose interface
// addresses are deliberately numbered from the neighbouring AS's space,
// the classic source of IP-to-AS ambiguity at AS boundaries.
package asn

import (
	"fmt"

	"repro/internal/iptable"
	"repro/internal/packet"
)

// ASN is an autonomous system number.
type ASN uint32

// Info describes an autonomous system.
type Info struct {
	ASN  ASN
	Name string
	// Tier is 1 for the core clique, 2 for transit, 3 for stubs, 0 for
	// vantage/eyeball networks.
	Tier int
}

// Table maps prefixes to origin ASes.
type Table struct {
	prefixes iptable.Table[Info]
	byASN    map[ASN]bool
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byASN: make(map[ASN]bool)}
}

// Add registers a prefix originated by an AS.
func (t *Table) Add(p iptable.Prefix, info Info) {
	t.prefixes.Insert(p, info)
	t.byASN[info.ASN] = true
}

// Reserve sizes an empty table for n prefixes of length bits, each
// originated by its own AS.
func (t *Table) Reserve(bits, n int) {
	t.prefixes.Reserve(bits, n)
	if len(t.byASN) == 0 {
		t.byASN = make(map[ASN]bool, n)
	}
}

// Lookup resolves the origin AS of an address.
func (t *Table) Lookup(a packet.Addr) (Info, bool) {
	info, _, ok := t.prefixes.Lookup(a)
	return info, ok
}

// Len reports registered prefix count.
func (t *Table) Len() int { return t.prefixes.Len() }

// ASCount reports the number of distinct ASes (the paper observed 1400
// ASes in its traceroute data).
func (t *Table) ASCount() int { return len(t.byASN) }

// Boundary reports whether consecutive path addresses a and b map to
// different ASes. Either side missing from the table counts as not
// determinable (the paper only attributes strips to AS boundaries "where
// we were able to determine the AS").
func (t *Table) Boundary(a, b packet.Addr) (boundary, determinable bool) {
	ia, okA := t.Lookup(a)
	ib, okB := t.Lookup(b)
	if !okA || !okB {
		return false, false
	}
	return ia.ASN != ib.ASN, true
}

// String describes the table.
func (t *Table) String() string {
	return fmt.Sprintf("asn.Table{%d prefixes, %d ASes}", t.Len(), t.ASCount())
}
