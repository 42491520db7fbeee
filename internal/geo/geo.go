// Package geo is the stand-in for the MaxMind GeoLite2 City database the
// paper used to place NTP pool servers on the map (Figure 1, Table 1).
//
// It offers the same operation — IP address in, location out — backed by
// a prefix table that the topology generator populates. Regions use the
// paper's Table 1 vocabulary.
package geo

import (
	"fmt"
	"sort"

	"repro/internal/iptable"
	"repro/internal/packet"
)

// Region is a continental region as used in the paper's Table 1.
type Region string

// The paper's regions.
const (
	Africa       Region = "Africa"
	Asia         Region = "Asia"
	Australia    Region = "Australia"
	Europe       Region = "Europe"
	NorthAmerica Region = "North America"
	SouthAmerica Region = "South America"
	Unknown      Region = "Unknown"
)

// Regions lists all regions in the paper's table order.
func Regions() []Region {
	return []Region{Africa, Asia, Australia, Europe, NorthAmerica, SouthAmerica, Unknown}
}

// Location is a database record: what a GeoLite2 city lookup returns, at
// the granularity the study actually used.
type Location struct {
	Region  Region
	Country string // ISO 3166-1 alpha-2
	City    string
	Lat     float64
	Lon     float64
}

// DB is an IP-to-location database.
type DB struct {
	table iptable.Table[Location]
}

// Add registers a prefix with its location.
func (db *DB) Add(p iptable.Prefix, loc Location) { db.table.Insert(p, loc) }

// Reserve sizes the database for n prefixes of length bits.
func (db *DB) Reserve(bits, n int) { db.table.Reserve(bits, n) }

// Lookup resolves an address. Addresses not in the database return a
// Location with Region Unknown and ok = false, matching how the paper
// reports two servers with unknown location.
func (db *DB) Lookup(a packet.Addr) (Location, bool) {
	loc, _, ok := db.table.Lookup(a)
	if !ok {
		return Location{Region: Unknown}, false
	}
	return loc, true
}

// Len reports the number of prefixes in the database.
func (db *DB) Len() int { return db.table.Len() }

// RegionCounts tallies the regions of a set of addresses: the computation
// behind Table 1.
func (db *DB) RegionCounts(addrs []packet.Addr) map[Region]int {
	counts := make(map[Region]int)
	for _, a := range addrs {
		loc, _ := db.Lookup(a)
		counts[loc.Region]++
	}
	return counts
}

// Point is a located address, used to render Figure 1's world map.
type Point struct {
	Addr packet.Addr
	Loc  Location
}

// Locate maps each address to a Point, sorted by address for stable
// output.
func (db *DB) Locate(addrs []packet.Addr) []Point {
	pts := make([]Point, 0, len(addrs))
	for _, a := range addrs {
		loc, _ := db.Lookup(a)
		pts = append(pts, Point{Addr: a, Loc: loc})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Addr.Less(pts[j].Addr) })
	return pts
}

// String describes the database size.
func (db *DB) String() string {
	return fmt.Sprintf("geo.DB{%d prefixes}", db.Len())
}
