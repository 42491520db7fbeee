package dnspool

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// DNSPort is the well-known DNS UDP port.
const DNSPort = 53

// AnswersPerQuery is how many A records the pool returns per query,
// matching the live pool's behaviour of handing out small rotating sets.
const AnswersPerQuery = 4

// AnswerTTL is the short TTL the pool uses to keep rotation effective.
const AnswerTTL = 150

// BaseZone is the pool's apex domain.
const BaseZone = "pool.ntp.org"

// Directory is the simulated pool DNS service: a set of zones, each
// holding member servers, answered round-robin. It attaches to a
// simulated host on UDP port 53.
type Directory struct {
	zones map[string]*zone

	// Queries counts requests served, for tests.
	Queries uint64
}

type zone struct {
	members []packet.Addr
	cursor  int
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{zones: make(map[string]*zone)}
}

// AddServer registers an NTP server under the apex zone and any
// sub-zones (e.g. "uk", "europe"). Zone names are the DNS labels to the
// left of pool.ntp.org.
func (d *Directory) AddServer(addr packet.Addr, subzones ...string) {
	d.addTo(BaseZone, addr)
	for _, sz := range subzones {
		if sz == "" {
			continue
		}
		d.addTo(sz+"."+BaseZone, addr)
	}
}

// Reserve sizes a sub-zone ("" for the apex) for n members in all, so
// that registering them allocates nothing.
func (d *Directory) Reserve(subzone string, n int) {
	if n <= 0 {
		return
	}
	name := BaseZone
	if subzone != "" {
		name = subzone + "." + BaseZone
	}
	z := d.zone(name)
	z.members = slices.Grow(z.members, max(n-len(z.members), 0))
}

func (d *Directory) addTo(name string, addr packet.Addr) {
	z := d.zone(name)
	z.members = append(z.members, addr)
}

// zone returns the zone called name, creating it. Only a new zone keeps
// a copy of name, so the name a caller assembles need not outlive the
// call and stays off the heap.
func (d *Directory) zone(name string) *zone {
	name = strings.ToLower(name)
	z := d.zones[name]
	if z == nil {
		z = &zone{}
		d.zones[strings.Clone(name)] = z
	}
	return z
}

// Clone returns a directory with the same zone membership and fresh
// round-robin cursors. The member lists are shared (they are append-only
// once built), so cloning a 2500-server directory copies only the zone
// index — the campaign engine clones its blueprint's directory into
// every shard simulation this way.
func (d *Directory) Clone() *Directory {
	c := NewDirectory()
	for name, z := range d.zones {
		// Full-slice expression clamps capacity to length: an AddServer
		// on the clone then reallocates instead of appending in place
		// over the template's backing array, which sibling clones and
		// the frozen blueprint share.
		c.zones[name] = &zone{members: z.members[:len(z.members):len(z.members)]}
	}
	return c
}

// Reset rewinds every zone's round-robin cursor and the query counter —
// the state a fresh Clone starts from. Discovery reads the cursors, so a
// world reused for another shard must not inherit them.
func (d *Directory) Reset() {
	for _, z := range d.zones {
		z.cursor = 0
	}
	d.Queries = 0
}

// Zones lists the zone names in sorted order.
func (d *Directory) Zones() []string {
	names := make([]string, 0, len(d.zones))
	for n := range d.zones {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Resolve answers a single query, advancing the zone's round-robin
// cursor. It returns up to AnswersPerQuery addresses and reports whether
// the zone exists. The rotation is deterministic — repeated queries
// enumerate the full membership — which mirrors how the paper's
// repeated ten-minute polls eventually discovered 2500 distinct servers.
func (d *Directory) Resolve(name string) ([]packet.Addr, bool) {
	z := d.zones[strings.ToLower(name)]
	if z == nil || len(z.members) == 0 {
		return nil, false
	}
	n := AnswersPerQuery
	if n > len(z.members) {
		n = len(z.members)
	}
	out := make([]packet.Addr, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, z.members[(z.cursor+i)%len(z.members)])
	}
	z.cursor = (z.cursor + n) % len(z.members)
	return out, true
}

// AttachSim binds the directory to UDP port 53 on a simulated host.
func (d *Directory) AttachSim(h *netsim.Host) error {
	_, err := h.BindUDP(DNSPort, func(host *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		query, err := Parse(payload)
		if err != nil || query.IsResponse() || len(query.Questions) != 1 {
			return
		}
		d.Queries++
		q := query.Questions[0]
		resp := Message{
			ID:        query.ID,
			Flags:     FlagQR | FlagAA | (query.Flags & FlagRD) | FlagRA,
			Questions: query.Questions,
		}
		if q.Type == TypeA && q.Class == ClassIN {
			if addrs, ok := d.Resolve(q.Name); ok {
				for _, a := range addrs {
					resp.Answers = append(resp.Answers, ResourceRecord{
						Name: q.Name, Type: TypeA, Class: ClassIN, TTL: AnswerTTL, Addr: a,
					})
				}
			} else {
				resp.RCode = RCodeNXDomain
			}
		}
		wire, err := resp.Marshal()
		if err != nil {
			return
		}
		// Responses to well-formed queries cannot fail to serialize.
		_ = host.SendUDP(ip.Src, udp.DstPort, udp.SrcPort, 64, 0 /* not-ECT */, wire)
	})
	return err
}
