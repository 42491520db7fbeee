package iptable

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.1.2.3/16")
	if err != nil {
		t.Fatal(err)
	}
	// Host bits canonicalised away.
	if p.String() != "10.1.0.0/16" {
		t.Errorf("canonical form = %s", p)
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "nope/8", "10.0.0.0/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) accepted", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.168.0.0/16")
	if !p.Contains(packet.MustParseAddr("192.168.255.1")) {
		t.Error("inside address rejected")
	}
	if p.Contains(packet.MustParseAddr("192.169.0.1")) {
		t.Error("outside address accepted")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(packet.MustParseAddr("203.0.113.7")) {
		t.Error("default route must contain everything")
	}
	host := MustParsePrefix("10.0.0.1/32")
	if !host.Contains(packet.MustParseAddr("10.0.0.1")) || host.Contains(packet.MustParseAddr("10.0.0.2")) {
		t.Error("/32 semantics wrong")
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	var tbl Table[string]
	tbl.Insert(MustParsePrefix("0.0.0.0/0"), "default")
	tbl.Insert(MustParsePrefix("10.0.0.0/8"), "ten")
	tbl.Insert(MustParsePrefix("10.1.0.0/16"), "ten-one")
	tbl.Insert(MustParsePrefix("10.1.2.0/24"), "ten-one-two")

	cases := []struct {
		addr string
		want string
	}{
		{"10.1.2.3", "ten-one-two"},
		{"10.1.9.9", "ten-one"},
		{"10.200.0.1", "ten"},
		{"192.0.2.1", "default"},
	}
	for _, c := range cases {
		got, _, ok := tbl.Lookup(packet.MustParseAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q,%v want %q", c.addr, got, ok, c.want)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	var tbl Table[int]
	tbl.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if _, _, ok := tbl.Lookup(packet.MustParseAddr("11.0.0.1")); ok {
		t.Error("miss reported as hit")
	}
}

func TestInsertReplace(t *testing.T) {
	var tbl Table[int]
	p := MustParsePrefix("10.0.0.0/8")
	tbl.Insert(p, 1)
	tbl.Insert(p, 2)
	if tbl.Len() != 1 {
		t.Errorf("Len = %d after replace", tbl.Len())
	}
	got, _, _ := tbl.Lookup(packet.MustParseAddr("10.1.1.1"))
	if got != 2 {
		t.Errorf("value = %d, want replacement", got)
	}
}

// Property: after inserting a /b prefix derived from an address, looking
// up that address finds a prefix that contains it.
func TestLookupContainsProperty(t *testing.T) {
	f := func(raw uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		addr := packet.AddrFromUint32(raw)
		var tbl Table[bool]
		tbl.Insert(MakePrefix(addr, bits), true)
		_, p, ok := tbl.Lookup(addr)
		return ok && p.Contains(addr) && p.Bits == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: lookup always returns the most specific matching prefix.
func TestMostSpecificWinsProperty(t *testing.T) {
	f := func(raw uint32, b1, b2 uint8) bool {
		bits1, bits2 := int(b1%33), int(b2%33)
		addr := packet.AddrFromUint32(raw)
		var tbl Table[int]
		tbl.Insert(MakePrefix(addr, bits1), bits1)
		tbl.Insert(MakePrefix(addr, bits2), bits2)
		got, _, ok := tbl.Lookup(addr)
		want := bits1
		if bits2 > bits1 {
			want = bits2
		}
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDefaultRouteOnly(t *testing.T) {
	var tbl Table[string]
	tbl.Insert(MustParsePrefix("0.0.0.0/0"), "d")
	got, p, ok := tbl.Lookup(packet.MustParseAddr("8.8.8.8"))
	if !ok || got != "d" || p.Bits != 0 {
		t.Errorf("default lookup = %q %s %v", got, p, ok)
	}
}
