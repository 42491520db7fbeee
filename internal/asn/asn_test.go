package asn

import (
	"testing"

	"repro/internal/iptable"
	"repro/internal/packet"
)

func sampleTable() *Table {
	t := NewTable()
	t.Add(iptable.MustParsePrefix("16.0.0.0/16"), Info{ASN: 64500, Name: "tier1-a", Tier: 1})
	t.Add(iptable.MustParsePrefix("16.1.0.0/16"), Info{ASN: 64501, Name: "transit-b", Tier: 2})
	t.Add(iptable.MustParsePrefix("16.2.0.0/16"), Info{ASN: 64502, Name: "stub-c", Tier: 3})
	return t
}

func TestLookup(t *testing.T) {
	tbl := sampleTable()
	info, ok := tbl.Lookup(packet.MustParseAddr("16.1.200.3"))
	if !ok || info.ASN != 64501 {
		t.Errorf("lookup = %+v,%v", info, ok)
	}
	if _, ok := tbl.Lookup(packet.MustParseAddr("99.0.0.1")); ok {
		t.Error("unknown address found")
	}
}

func TestASCount(t *testing.T) {
	tbl := sampleTable()
	if tbl.ASCount() != 3 {
		t.Errorf("ASCount = %d", tbl.ASCount())
	}
	// Multiple prefixes from one AS count once.
	tbl.Add(iptable.MustParsePrefix("16.3.0.0/16"), Info{ASN: 64500, Name: "tier1-a", Tier: 1})
	if tbl.ASCount() != 3 {
		t.Errorf("ASCount after extra prefix = %d", tbl.ASCount())
	}
	if tbl.Len() != 4 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestBoundary(t *testing.T) {
	tbl := sampleTable()
	a := packet.MustParseAddr("16.0.0.1")
	b := packet.MustParseAddr("16.1.0.1")
	c := packet.MustParseAddr("16.1.0.2")
	x := packet.MustParseAddr("99.0.0.1")

	if boundary, det := tbl.Boundary(a, b); !det || !boundary {
		t.Error("cross-AS pair not detected as boundary")
	}
	if boundary, det := tbl.Boundary(b, c); !det || boundary {
		t.Error("same-AS pair detected as boundary")
	}
	if _, det := tbl.Boundary(a, x); det {
		t.Error("unmappable address reported determinable")
	}
}

func TestString(t *testing.T) {
	if sampleTable().String() == "" {
		t.Error("empty String()")
	}
}
