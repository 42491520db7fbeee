package geo

import (
	"testing"

	"repro/internal/iptable"
	"repro/internal/packet"
)

func sampleDB() *DB {
	db := &DB{}
	db.Add(iptable.MustParsePrefix("81.0.0.0/8"), Location{Region: Europe, Country: "GB", City: "Glasgow", Lat: 55.86, Lon: -4.25})
	db.Add(iptable.MustParsePrefix("81.1.0.0/16"), Location{Region: Europe, Country: "DE", City: "Frankfurt", Lat: 50.11, Lon: 8.68})
	db.Add(iptable.MustParsePrefix("200.0.0.0/8"), Location{Region: SouthAmerica, Country: "BR", City: "Sao Paulo", Lat: -23.5, Lon: -46.6})
	return db
}

func TestLookupLongestMatch(t *testing.T) {
	db := sampleDB()
	loc, ok := db.Lookup(packet.MustParseAddr("81.1.2.3"))
	if !ok || loc.Country != "DE" {
		t.Errorf("lookup = %+v,%v want DE", loc, ok)
	}
	loc, ok = db.Lookup(packet.MustParseAddr("81.2.0.1"))
	if !ok || loc.Country != "GB" {
		t.Errorf("lookup = %+v,%v want GB", loc, ok)
	}
}

func TestLookupUnknown(t *testing.T) {
	db := sampleDB()
	loc, ok := db.Lookup(packet.MustParseAddr("8.8.8.8"))
	if ok {
		t.Error("unknown address reported found")
	}
	if loc.Region != Unknown {
		t.Errorf("unknown region = %v", loc.Region)
	}
}

func TestRegionCounts(t *testing.T) {
	db := sampleDB()
	addrs := []packet.Addr{
		packet.MustParseAddr("81.0.0.1"),  // Europe
		packet.MustParseAddr("81.1.0.1"),  // Europe (DE)
		packet.MustParseAddr("200.1.1.1"), // South America
		packet.MustParseAddr("9.9.9.9"),   // Unknown
	}
	counts := db.RegionCounts(addrs)
	if counts[Europe] != 2 || counts[SouthAmerica] != 1 || counts[Unknown] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestLocateSorted(t *testing.T) {
	db := sampleDB()
	addrs := []packet.Addr{
		packet.MustParseAddr("200.1.1.1"),
		packet.MustParseAddr("81.0.0.1"),
	}
	pts := db.Locate(addrs)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if !pts[0].Addr.Less(pts[1].Addr) {
		t.Error("points not sorted")
	}
	if pts[0].Loc.Country != "GB" {
		t.Errorf("first point = %+v", pts[0])
	}
}

func TestRegionsComplete(t *testing.T) {
	rs := Regions()
	if len(rs) != 7 {
		t.Fatalf("regions = %d, want 7 (Table 1 rows)", len(rs))
	}
	if rs[len(rs)-1] != Unknown {
		t.Error("Unknown must come last, as in Table 1")
	}
}

func TestDBString(t *testing.T) {
	if sampleDB().String() == "" {
		t.Error("empty String()")
	}
}
