package topology

import (
	"fmt"
	"slices"

	"repro/internal/aqm"
	"repro/internal/asn"
	"repro/internal/dnspool"
	"repro/internal/geo"
	"repro/internal/httpmin"
	"repro/internal/iptable"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/ntp"
	"repro/internal/packet"
	"repro/internal/tcpsim"
	"repro/internal/traceroute"
	"repro/internal/vantage"
)

// Address plan: each autonomous system i owns the /16 at 16.0.0.0 +
// i<<16. Within an AS, routers live in .1.0/24 and hosts in .2.0/24.
// The space is synthetic — the simulation owns the whole address plane.
const addrBase = uint32(16) << 24

func asPrefix(asIdx int) iptable.Prefix {
	return iptable.MakePrefix(packet.AddrFromUint32(addrBase+uint32(asIdx)<<16), 16)
}

func routerAddr(asIdx, r int) packet.Addr {
	return packet.AddrFromUint32(addrBase + uint32(asIdx)<<16 + 0x0100 + uint32(r))
}

func hostAddr(asIdx, h int) packet.Addr {
	return packet.AddrFromUint32(addrBase + uint32(asIdx)<<16 + 0x0200 + uint32(h))
}

func hostSubnet(asIdx int) iptable.Prefix {
	return iptable.MakePrefix(packet.AddrFromUint32(addrBase+uint32(asIdx)<<16+0x0200), 24)
}

// builder carries generation state.
type builder struct {
	cfg Config
	sim *netsim.Sim
	w   *World

	// Exactly one of rec and rep is set. rec captures every stochastic
	// build decision (Compile) so a Blueprint can replay the
	// construction without consuming RNG state; rep substitutes the
	// recorded decisions for fresh draws (Blueprint.Instantiate).
	rec *decisionTrace
	rep *decisionTrace
	// shared, when non-nil, provides the frozen read-only world parts
	// (geo, ASN, DNS membership, routes); the builder then skips
	// regenerating them.
	shared *sharedParts

	nextAS int
	// tier-1 core routers per tier-1 AS.
	tier1 [][]*netsim.Router
	// transits per region: each entry is the downstream border router.
	transitDown map[geo.Region][]*netsim.Router
	transitIdx  map[geo.Region]int
	// transitCoreDown collects each transit AS's core↔down link, the
	// placement site of the congested-transit scenario's bottlenecks.
	transitCoreDown []transitLink

	stubs []stubInfo // sized up front: placement keeps pointers into it
}

// transitLink remembers a transit-internal link and its endpoints so
// bottlenecks can name directions.
type transitLink struct {
	link       *netsim.Link
	core, down *netsim.Router
}

// stubInfo remembers a generated edge network.
type stubInfo struct {
	border, access *netsim.Router
	asIdx          int32
	// first and n place its servers in World.Servers.
	first, n int32
	// firewalls counts the site-firewall routers inserted so far.
	firewalls int16
	hasQuirk  bool // hosts a firewalled/scoped server or a bleacher
}

func newBuilder(sim *netsim.Sim, cfg Config) *builder {
	return &builder{
		cfg:         cfg,
		sim:         sim,
		w:           &World{Cfg: cfg, Sim: sim, BleachRouters: make(map[int]string)},
		transitDown: make(map[geo.Region][]*netsim.Router),
		transitIdx:  make(map[geo.Region]int),
	}
}

func (b *builder) run() (*World, error) {
	if err := validate(b.cfg); err != nil {
		return nil, err
	}
	// Every slice and map the build fills is sized once, from the config.
	size := b.cfg.size()
	w := b.w
	if b.shared != nil {
		// Replay over a frozen blueprint: the read-only lookups are
		// shared as-is (the builder consults ASN during construction, so
		// they install up front); the DNS directory is cloned because
		// its round-robin cursors are per-simulation state. The network
		// registers no address: it adopts the blueprint's index.
		w.Net = netsim.NewReplayNetwork(b.sim)
		w.Geo, w.ASN, w.Directory, w.CountryZones = b.shared.geo, b.shared.asn, b.shared.dir.Clone(), b.shared.zones
	} else {
		w.Net, w.Geo, w.ASN, w.Directory = netsim.NewNetwork(b.sim), &geo.DB{}, asn.NewTable(), dnspool.NewDirectory()
		w.Geo.Reserve(24, size.stubs)
		w.ASN.Reserve(16, size.ases)
		w.Directory.Reserve("", b.cfg.Servers)
	}
	w.Net.Reserve(size.routers, size.hosts, size.links)
	w.Servers = make([]*Server, 0, b.cfg.Servers)
	b.stubs = make([]stubInfo, 0, size.stubs)
	b.transitCoreDown = make([]transitLink, 0, size.transits)

	b.buildTier1s()
	b.buildTransits()
	if err := b.buildStubsAndServers(); err != nil {
		return nil, err
	}
	if err := b.buildVantages(); err != nil {
		return nil, err
	}
	if err := b.buildDNS(); err != nil {
		return nil, err
	}
	b.placeFirewalls()
	b.placeBleachers()
	b.assignServerRoles()
	b.placeBottlenecks()

	if b.shared != nil {
		if err := b.w.Net.ImportRoutes(b.shared.routes); err != nil {
			return nil, err
		}
	} else if err := b.w.Net.ComputeRoutes(); err != nil {
		return nil, err
	}
	// Everything bound so far (NTP, DNS) is the world's own service
	// surface: World.Reset returns hosts to it.
	b.w.Net.MarkBaseline()
	return b.w, nil
}

// drawPerm returns the firewall-placement permutation: a fresh draw from
// the simulation PRNG (recorded when compiling a blueprint), or the
// recorded one on replay.
func (b *builder) drawPerm(n int) []int {
	if b.rep != nil {
		return b.rep.perm
	}
	b.rec.perm = b.sim.RNG().Perm(n)
	return b.rec.perm
}

// drawRole returns server i's roles: drawn from the simulation PRNG —
// web server, then ECN if one, then broken ECE if that — and recorded
// when compiling a blueprint, or the recorded ones on replay.
func (b *builder) drawRole(i int, s *Server) serverRole {
	if b.rep != nil {
		return b.rep.roles[i]
	}
	rng := b.sim.RNG()
	var role serverRole
	if rng.Float64() < b.cfg.WebServerFraction {
		role = roleWeb
		ecnFrac := b.cfg.TCPECNFraction
		if s.ECTUDPFirewalled || s.ScopedECT {
			ecnFrac = b.cfg.FirewalledTCPECNFraction
		}
		if rng.Float64() < ecnFrac {
			role |= roleWebECN
			if rng.Float64() < b.cfg.BrokenECEFraction {
				role |= roleBrokenECE
			}
		}
	}
	b.rec.roles[i] = role
	return role
}

func validate(cfg Config) error {
	total := 0
	for _, n := range cfg.RegionServers {
		total += n
	}
	if total != cfg.Servers {
		return fmt.Errorf("topology: region counts sum to %d, want %d", total, cfg.Servers)
	}
	special := cfg.ECTUDPFirewalledServers + cfg.NotECTFirewalledServers +
		cfg.SourceScopedNotECTServers + cfg.SourceScopedECTServers + cfg.FlakyServers
	if special > cfg.Servers/2 {
		return fmt.Errorf("topology: %d special servers exceed half the pool", special)
	}
	if cfg.CongestedVantageAccess || cfg.CongestedTransit {
		if cfg.BottleneckRate <= 0 {
			return fmt.Errorf("topology: congested placement requires BottleneckRate > 0")
		}
		if cfg.BottleneckQueueLen <= 0 {
			return fmt.Errorf("topology: congested placement requires BottleneckQueueLen > 0")
		}
	}
	return nil
}

// buildSize counts what a Config builds.
type buildSize struct{ routers, hosts, links, stubs, transits, ases int }

// size counts the routers, hosts, links, stubs and transit ASes the
// builder makes for cfg, following its construction step by step, so
// that each registry is allocated once.
func (cfg Config) size() buildSize {
	t := cfg.Tier1Count
	// The tier-1 clique, the pool's DNS AS (a router, two links and its
	// host's access link), every server's and vantage's access link.
	s := buildSize{routers: 4*t + 1, hosts: cfg.Servers + len(vantageSpecs) + 1,
		links: 4*t + t*(t-1)/2 + 3 + cfg.Servers + len(vantageSpecs)}
	for _, r := range geo.Regions() {
		if n := cfg.RegionServers[r]; n > 0 {
			stubs := (n + cfg.ServersPerStub - 1) / cfg.ServersPerStub
			s.stubs += stubs
			s.transits += (stubs + cfg.StubsPerTransit - 1) / cfg.StubsPerTransit
		}
	}
	// A firewall router and its link per firewalled server; the move
	// behind it keeps the link count.
	fw := cfg.ECTUDPFirewalledServers + cfg.NotECTFirewalledServers +
		cfg.SourceScopedNotECTServers + cfg.SourceScopedECTServers
	s.routers += 2*s.stubs + 3*s.transits + fw
	s.links += 2*s.stubs + 4*s.transits + fw
	campus, own := 0, 0
	for _, v := range vantageSpecs {
		switch v.kind {
		case KindHome:
			s.routers, s.links, own = s.routers+2, s.links+2, own+1
		case KindCloud:
			s.routers, s.links, own = s.routers+2, s.links+3, own+1
		default:
			s.routers, s.links, campus = s.routers+1, s.links+1, 1
		}
	}
	s.routers, s.links = s.routers+campus, s.links+campus
	// An AS per tier-1, transit, stub, home and cloud vantage, the
	// campus's and the pool DNS's.
	s.ases = t + s.transits + s.stubs + own + campus + 1
	return s
}

// allocAS reserves the next AS index and registers its prefix under
// name(). On blueprint replay the shared ASN table already holds the
// entry, and no name is made.
func (b *builder) allocAS(tier int, name func() string) (int, asn.ASN) {
	idx := b.nextAS
	b.nextAS++
	number := asn.ASN(1000 + idx)
	if b.shared == nil {
		b.w.ASN.Add(asPrefix(idx), asn.Info{ASN: number, Name: name(), Tier: tier})
	}
	return idx, number
}

// regionsInOrder iterates regions deterministically (map order is not).
func (b *builder) regionsInOrder() []geo.Region {
	var out []geo.Region
	for _, r := range geo.Regions() {
		if b.cfg.RegionServers[r] > 0 {
			out = append(out, r)
		}
	}
	return out
}

// buildTier1s creates the core clique: Tier1Count ASes of four routers
// each, rings internally, full-mesh peering externally.
func (b *builder) buildTier1s() {
	for t := 0; t < b.cfg.Tier1Count; t++ {
		asIdx, number := b.allocAS(1, func() string { return fmt.Sprintf("tier1-%d", t) })
		var rs []*netsim.Router
		for r := 0; r < 4; r++ {
			rs = append(rs, b.w.Net.AddRouter(
				fmt.Sprintf("t1-%d-r%d", t, r), routerAddr(asIdx, r), uint32(number)))
		}
		for r := 0; r < 4; r++ {
			b.w.Net.Connect(rs[r], rs[(r+1)%4], b.cfg.CoreDelay/4, 0)
		}
		b.tier1 = append(b.tier1, rs)
	}
	for a := 0; a < len(b.tier1); a++ {
		for c := a + 1; c < len(b.tier1); c++ {
			b.w.Net.Connect(b.tier1[a][c%4], b.tier1[c][a%4], b.cfg.CoreDelay, 0)
		}
	}
}

// buildTransits creates regional transit ASes, enough for the region's
// stubs, each dual-homed to two tier-1s.
func (b *builder) buildTransits() {
	for _, region := range b.regionsInOrder() {
		stubs := (b.cfg.RegionServers[region] + b.cfg.ServersPerStub - 1) / b.cfg.ServersPerStub
		transits := (stubs + b.cfg.StubsPerTransit - 1) / b.cfg.StubsPerTransit
		for t := 0; t < transits; t++ {
			asIdx, number := b.allocAS(2, func() string { return fmt.Sprintf("transit-%s-%d", regionSlug(region), t) })
			up := b.w.Net.AddRouter(fmt.Sprintf("tr-%d-up", asIdx), routerAddr(asIdx, 0), uint32(number))
			core := b.w.Net.AddRouter(fmt.Sprintf("tr-%d-core", asIdx), routerAddr(asIdx, 1), uint32(number))
			down := b.w.Net.AddRouter(fmt.Sprintf("tr-%d-down", asIdx), routerAddr(asIdx, 2), uint32(number))
			b.w.Net.Connect(up, core, b.cfg.TransitDelay/2, 0)
			coreDown := b.w.Net.Connect(core, down, b.cfg.TransitDelay/2, 0)
			b.transitCoreDown = append(b.transitCoreDown, transitLink{link: coreDown, core: core, down: down})
			// Dual-home to two tier-1s, spread deterministically.
			t1a := b.tier1[asIdx%len(b.tier1)]
			t1b := b.tier1[(asIdx+1)%len(b.tier1)]
			b.w.Net.Connect(up, t1a[asIdx%4], b.cfg.TransitDelay, 0)
			b.w.Net.Connect(up, t1b[(asIdx+2)%4], b.cfg.TransitDelay, 0)
			b.transitDown[region] = append(b.transitDown[region], down)
		}
	}
}

// nextTransit cycles a region's transits for stub homing.
func (b *builder) nextTransit(region geo.Region) *netsim.Router {
	list := b.transitDown[region]
	i := b.transitIdx[region]
	b.transitIdx[region] = i + 1
	return list[i%len(list)]
}

// buildStubsAndServers creates edge networks and their pool servers, and
// registers geo / DNS entries.
func (b *builder) buildStubsAndServers() error {
	for _, region := range b.regionsInOrder() {
		remaining := b.cfg.RegionServers[region]
		countries := regionCountries[region]
		if b.shared == nil {
			b.reserveZones(region, remaining)
		}
		stubNum := 0
		for remaining > 0 {
			n := b.cfg.ServersPerStub
			if n > remaining {
				n = remaining
			}
			remaining -= n
			country := countries[stubNum%len(countries)]
			if err := b.buildStub(region, country, stubNum, n); err != nil {
				return err
			}
			stubNum++
		}
	}
	return nil
}

// reserveZones sizes the DNS zones of region's servers: its region
// zone, and each of its countries', whose stubs take turns.
func (b *builder) reserveZones(region geo.Region, servers int) {
	per, countries := b.cfg.ServersPerStub, regionCountries[region]
	stubs, k := (servers+per-1)/per, len(countries)
	if z, ok := regionZone[region]; ok {
		b.w.Directory.Reserve(z, servers)
	}
	for j, c := range countries {
		n := (stubs - j + k - 1) / k * per
		if (stubs-1)%k == j {
			n -= stubs*per - servers // the short last stub
		}
		if c != "" {
			b.w.Directory.Reserve(c, n)
		}
	}
}

func (b *builder) buildStub(region geo.Region, country string, stubNum, nServers int) error {
	asIdx, number := b.allocAS(3, func() string { return fmt.Sprintf("stub-%s-%d", regionSlug(region), stubNum) })
	border := b.w.Net.AddRouter(fmt.Sprintf("st-%d-border", asIdx), routerAddr(asIdx, 0), uint32(number))
	access := b.w.Net.AddRouter(fmt.Sprintf("st-%d-access", asIdx), routerAddr(asIdx, 1), uint32(number))
	b.w.Net.Connect(border, access, b.cfg.EdgeDelay/2, 0)
	b.w.Net.Connect(border, b.nextTransit(region), b.cfg.EdgeDelay, 0)

	if b.shared == nil && region != geo.Unknown {
		coords := regionCoords[region]
		b.w.Geo.Add(hostSubnet(asIdx), geo.Location{
			Region:  region,
			Country: countryCode(country),
			City:    fmt.Sprintf("%s-%d", regionSlug(region), stubNum),
			Lat:     coords[0] + float64(stubNum%7) - 3,
			Lon:     coords[1] + float64(stubNum%11) - 5,
		})
	}

	first := len(b.w.Servers)
	for i := 0; i < nServers; i++ {
		addr := hostAddr(asIdx, i)
		host, err := b.w.Net.AddHost("ntp", addr)
		if err != nil {
			return err
		}
		if _, err := b.w.Net.Attach(host, access, b.cfg.AccessDelay, 0); err != nil {
			return err
		}
		srv := &Server{
			Host:    host,
			Addr:    addr,
			Region:  region,
			Country: countryCode(country),
			NTP:     ntp.NewServer(addr.Uint32()),
		}
		if err := srv.NTP.AttachSim(host); err != nil {
			return err
		}
		// Pool DNS registration: country zone plus region zone. The
		// cloned blueprint directory already carries the membership.
		if b.shared == nil {
			b.w.Directory.AddServer(addr, country, regionZone[region])
		}
		b.w.Servers = append(b.w.Servers, srv)
	}
	b.stubs = append(b.stubs, stubInfo{border: border, access: access,
		asIdx: int32(asIdx), first: int32(first), n: int32(nServers)})
	return nil
}

// vantageSpec describes one of the paper's 13 locations; its name is
// vantage.Name of its index.
type vantageSpec struct {
	kind   VantageKind
	region geo.Region
	// base loss and jitter calibrate the access network (DESIGN.md §6):
	// McQuistin's home shows heavy access congestion; the Glasgow
	// wireless network is noisy; EC2 is clean.
	baseLoss, lossJitter float64
}

// vantageSpecs lists the locations in the paper's Table 2 order, the
// order package vantage declares their names in.
var vantageSpecs = [vantage.Count]vantageSpec{
	{KindHome, geo.Europe, 0.010, 0.010},           // Perkins home
	{KindHome, geo.Europe, 0.395, 0.025},           // McQuistin home
	{KindCampusWired, geo.Europe, 0.004, 0.004},    // U. Glasgow wired
	{KindCampusWireless, geo.Europe, 0.180, 0.200}, // U. Glasgow wireless
	{KindCloud, geo.NorthAmerica, 0.002, 0.002},    // EC2 California
	{KindCloud, geo.Europe, 0.002, 0.002},          // EC2 Frankfurt
	{KindCloud, geo.Europe, 0.002, 0.002},          // EC2 Ireland
	{KindCloud, geo.NorthAmerica, 0.002, 0.002},    // EC2 Oregon
	{KindCloud, geo.SouthAmerica, 0.002, 0.002},    // EC2 Sao Paulo
	{KindCloud, geo.Asia, 0.002, 0.002},            // EC2 Singapore
	{KindCloud, geo.Australia, 0.002, 0.002},       // EC2 Sydney
	{KindCloud, geo.Asia, 0.002, 0.002},            // EC2 Tokyo
	{KindCloud, geo.NorthAmerica, 0.002, 0.002},    // EC2 Virginia
}

// scopedECTVantages are the cloud locations whose sources trigger the
// source-scoped ECT-UDP firewalls (chosen to match Table 2's higher
// counts at Sao Paulo/Virginia/Oregon/Frankfurt/Sydney).
var scopedECTVantages = map[string]bool{
	"EC2 Sao Paulo": true, "EC2 Virginia": true, "EC2 Oregon": true,
	"EC2 Frankfurt": true, "EC2 Sydney": true,
}

// VantageNames lists the 13 vantage points in the paper's Table 2 order
// without building a world. The sharded campaign engine partitions its
// probe plan on this order, so shard numbering is stable across runs.
func VantageNames() []string {
	out := make([]string, vantage.Count)
	for i := range out {
		out[i] = vantage.Name(uint8(i))
	}
	return out
}

// buildVantages creates the measurement hosts: home ISP eyeball ASes, a
// campus AS with wired and wireless access, and nine cloud-region ASes.
func (b *builder) buildVantages() error {
	// The campus AS is shared by the two Glasgow vantages.
	var campusBorder *netsim.Router
	var campusASIdx int

	// One free list of traceroute session shells for the whole world:
	// its vantages sweep one after another on one goroutine.
	sessions := new(traceroute.Pool)
	for i, spec := range vantageSpecs {
		name := vantage.Name(uint8(i))
		var attachTo *netsim.Router
		var asIdx int
		switch spec.kind {
		case KindHome:
			idx, number := b.allocAS(0, func() string { return "isp-" + slug(name) })
			border := b.w.Net.AddRouter(fmt.Sprintf("isp-%d-border", idx), routerAddr(idx, 0), uint32(number))
			access := b.w.Net.AddRouter(fmt.Sprintf("isp-%d-access", idx), routerAddr(idx, 1), uint32(number))
			b.w.Net.Connect(border, access, b.cfg.EdgeDelay, 0)
			b.w.Net.Connect(border, b.nextTransit(spec.region), b.cfg.EdgeDelay, 0)
			attachTo, asIdx = access, idx
		case KindCampusWired, KindCampusWireless:
			if campusBorder == nil {
				idx, number := b.allocAS(0, func() string { return "campus-glasgow" })
				campusASIdx = idx
				campusBorder = b.w.Net.AddRouter(fmt.Sprintf("campus-%d-border", idx), routerAddr(idx, 0), uint32(number))
				b.w.Net.Connect(campusBorder, b.nextTransit(geo.Europe), b.cfg.EdgeDelay, 0)
			}
			r := 1
			if spec.kind == KindCampusWireless {
				r = 2
			}
			num, _ := b.w.ASN.Lookup(routerAddr(campusASIdx, 0))
			access := b.w.Net.AddRouter(fmt.Sprintf("campus-%d-r%d", campusASIdx, r), routerAddr(campusASIdx, r), uint32(num.ASN))
			b.w.Net.Connect(campusBorder, access, b.cfg.EdgeDelay/2, 0)
			attachTo, asIdx = access, campusASIdx
		case KindCloud:
			idx, number := b.allocAS(0, func() string { return "cloud-" + slug(name) })
			border := b.w.Net.AddRouter(fmt.Sprintf("cloud-%d-border", idx), routerAddr(idx, 0), uint32(number))
			access := b.w.Net.AddRouter(fmt.Sprintf("cloud-%d-access", idx), routerAddr(idx, 1), uint32(number))
			b.w.Net.Connect(border, access, b.cfg.AccessDelay, 0)
			// Clouds peer directly with two tier-1s.
			b.w.Net.Connect(border, b.tier1[idx%len(b.tier1)][idx%4], b.cfg.TransitDelay, 0)
			b.w.Net.Connect(border, b.tier1[(idx+2)%len(b.tier1)][(idx+1)%4], b.cfg.TransitDelay, 0)
			attachTo, asIdx = access, idx
		}

		hostIdxInAS := 0
		if spec.kind == KindCampusWireless {
			hostIdxInAS = 1 // wired host took slot 0
		}
		addr := hostAddr(asIdx, hostIdxInAS)
		host, err := b.w.Net.AddHost("vp-"+slug(name), addr)
		if err != nil {
			return err
		}
		if _, err := b.w.Net.Attach(host, attachTo, b.cfg.AccessDelay, 0); err != nil {
			return err
		}
		b.w.Vantages = append(b.w.Vantages, &Vantage{
			Name:       name,
			Kind:       spec.kind,
			Region:     spec.region,
			Host:       host,
			Stack:      tcpsim.NewStack(host),
			Mux:        traceroute.NewMux(host, sessions),
			BaseLoss:   spec.baseLoss,
			LossJitter: spec.lossJitter,
		})
	}
	return nil
}

// buildDNS creates the pool directory host in an infrastructure AS homed
// to two tier-1s.
func (b *builder) buildDNS() error {
	idx, number := b.allocAS(0, func() string { return "pool-infra" })
	border := b.w.Net.AddRouter(fmt.Sprintf("infra-%d-border", idx), routerAddr(idx, 0), uint32(number))
	b.w.Net.Connect(border, b.tier1[0][0], b.cfg.TransitDelay, 0)
	b.w.Net.Connect(border, b.tier1[1][1], b.cfg.TransitDelay, 0)
	addr := hostAddr(idx, 0)
	host, err := b.w.Net.AddHost("pool-dns", addr)
	if err != nil {
		return err
	}
	if _, err := b.w.Net.Attach(host, border, b.cfg.AccessDelay, 0); err != nil {
		return err
	}
	if err := b.w.Directory.AttachSim(host); err != nil {
		return err
	}
	b.w.DNSAddr = addr

	if b.shared != nil {
		return nil // CountryZones installed from the blueprint
	}
	zones := b.w.CountryZones
	for _, region := range b.regionsInOrder() {
		for _, c := range regionCountries[region] {
			if c != "" {
				zones = append(zones, c)
			}
		}
		if z, ok := regionZone[region]; ok {
			zones = append(zones, z)
		}
	}
	slices.Sort(zones)
	b.w.CountryZones = slices.Compact(zones)
	return nil
}

// cloudPrefixes returns the host subnets of the named cloud vantages,
// or of every cloud vantage when names is nil.
func (b *builder) cloudPrefixes(names map[string]bool) []iptable.Prefix {
	var out []iptable.Prefix
	for _, v := range b.w.Vantages {
		if v.Kind == KindCloud && (names == nil || names[v.Name]) {
			out = append(out, iptable.MakePrefix(v.Host.Addr(), 16))
		}
	}
	return out
}

// placeFirewalls selects the special servers and inserts their dedicated
// site-firewall routers.
func (b *builder) placeFirewalls() {
	perm := b.drawPerm(len(b.w.Servers))
	take := func(n int) []*Server {
		out := make([]*Server, 0, n)
		for len(out) < n && len(perm) > 0 {
			s := b.w.Servers[perm[0]]
			perm = perm[1:]
			out = append(out, s)
		}
		return out
	}

	for _, s := range take(b.cfg.ECTUDPFirewalledServers) {
		s.ECTUDPFirewalled = true
		b.insertSiteFirewall(s, &middlebox.ECTUDPDropper{})
	}
	for _, s := range take(b.cfg.NotECTFirewalledServers) {
		s.NotECTFirewalled = true
		b.insertSiteFirewall(s, &middlebox.NotECTUDPDropper{})
	}
	scopedAll := b.cloudPrefixes(nil)
	for _, s := range take(b.cfg.SourceScopedNotECTServers) {
		s.ScopedNotECT = true
		b.insertSiteFirewall(s, &middlebox.ScopedBySource{
			Prefixes: scopedAll, Inner: &middlebox.NotECTUDPDropper{}})
	}
	scopedSome := b.cloudPrefixes(scopedECTVantages)
	for _, s := range take(b.cfg.SourceScopedECTServers) {
		s.ScopedECT = true
		b.insertSiteFirewall(s, &middlebox.ScopedBySource{
			Prefixes: scopedSome, Inner: &middlebox.ECTUDPDropper{}})
	}
	for _, s := range take(b.cfg.FlakyServers) {
		s.Flaky = true
		b.markQuirk(s)
	}
}

// insertSiteFirewall re-homes a server behind a dedicated firewall
// router carrying the given policy, modelling a site middlebox one hop
// in front of the destination — where the paper concluded the ECT drops
// live ("the same set of servers ... from every location, suggesting the
// packets are dropped near to the destination"). The policy is scoped to
// traffic destined to the server: site firewalls filter inbound, and the
// server's own replies must pass.
func (b *builder) insertSiteFirewall(s *Server, policy netsim.Policy) {
	policy = &middlebox.ScopedByDest{
		Prefixes: []iptable.Prefix{iptable.MakePrefix(s.Addr, 32)},
		Inner:    policy,
	}
	stub := b.stubOf(s)
	// The firewall router joins the stub's AS, numbered after its border
	// (slot 0), access (1) and earlier firewall routers.
	info, _ := b.w.ASN.Lookup(s.Addr)
	slot := 2 + int(stub.firewalls)
	stub.firewalls++
	fw := b.w.Net.AddRouter(fmt.Sprintf("fw-%s", s.Addr), routerAddr(int(stub.asIdx), slot), uint32(info.ASN))
	fw.AddPolicy(policy)
	b.w.Net.Connect(stub.access, fw, b.cfg.AccessDelay/2, 0)
	b.rehome(s, fw)
	b.markQuirk(s)
}

// rehome moves a server's access link behind the given firewall router.
func (b *builder) rehome(s *Server, to *netsim.Router) {
	if _, err := b.w.Net.ReplaceAttachment(s.Host, to, b.cfg.AccessDelay); err != nil {
		// Attachment state is builder-controlled; failure here is a
		// programming error worth failing loudly on.
		panic(err)
	}
}

func (b *builder) markQuirk(s *Server) {
	if stub := b.stubOf(s); stub != nil {
		stub.hasQuirk = true
	}
}

func (b *builder) stubOf(s *Server) *stubInfo {
	for i := range b.stubs {
		if st := &b.stubs[i]; asPrefix(int(st.asIdx)).Contains(s.Addr) {
			return st
		}
	}
	return nil
}

// placeBleachers attaches ECN bleaching policies to stub routers:
// border placements create AS-boundary strip locations, interior ones do
// not, and "sometimes" placements flap.
func (b *builder) placeBleachers() {
	clean := make([]*stubInfo, 0, len(b.stubs))
	for i := range b.stubs {
		if st := &b.stubs[i]; !st.hasQuirk && b.w.Servers[st.first].Region != geo.Unknown {
			clean = append(clean, st)
		}
	}
	// Deterministic spread: step through clean stubs at a stride so the
	// bleached edges scatter across regions; collisions skip forward to
	// the next unused stub (a picked stub is marked at once, which sets
	// its hasQuirk).
	want := b.cfg.BleachedBorderStubs + b.cfg.BleachedInteriorStubs + b.cfg.SometimesBleachedStubs
	if want > len(clean) {
		want = len(clean)
	}
	stride := len(clean)/(want+1) + 1
	cursor := 0
	pick := func(int) *stubInfo {
		for tries := 0; tries < len(clean); tries++ {
			st := clean[(cursor*stride+tries)%len(clean)]
			if !st.hasQuirk {
				cursor++
				return st
			}
		}
		return nil
	}

	n := 0
	mark := func(st *stubInfo, r *netsim.Router, kind string, prob float64) {
		r.AddPolicy(&middlebox.ECNBleacher{Probability: prob, RNG: b.sim.RNG()})
		b.w.BleachRouters[r.ID()] = kind
		st.hasQuirk = true
		for _, s := range b.w.Servers[st.first : st.first+st.n] {
			s.BleachedPath = true
		}
	}
	for i := 0; i < b.cfg.BleachedBorderStubs; i, n = i+1, n+1 {
		if st := pick(n); st != nil {
			mark(st, st.border, "border", 1)
		}
	}
	for i := 0; i < b.cfg.BleachedInteriorStubs; i, n = i+1, n+1 {
		if st := pick(n); st != nil {
			mark(st, st.access, "interior", 1)
		}
	}
	for i := 0; i < b.cfg.SometimesBleachedStubs; i, n = i+1, n+1 {
		st := pick(n)
		if st == nil {
			continue
		}
		if i%2 == 0 {
			mark(st, st.border, "sometimes-border", 0.5)
		} else {
			mark(st, st.access, "sometimes-interior", 0.5)
		}
	}
}

// assignServerRoles rolls web-server presence and TCP ECN capability.
// Sites that firewall ECT UDP are given a lower ECN-negotiation rate —
// plausibly the same conservative administration — which produces Table
// 2's per-location counts while leaving the overall correlation weak
// (most UDP-ECT-blocked servers still negotiate ECN over TCP).
func (b *builder) assignServerRoles() {
	if b.rep == nil {
		b.rec.roles = make([]serverRole, len(b.w.Servers))
	}
	for i, s := range b.w.Servers {
		role := b.drawRole(i, s)
		if role&roleWeb == 0 {
			continue
		}
		s.Web, s.WebECN, s.BrokenECE = true, role&roleWebECN != 0, role&roleBrokenECE != 0
		s.Stack = tcpsim.NewStack(s.Host)
		// Pool web servers redirect to www.pool.ntp.org.
		l, err := httpmin.Serve(s.Stack, httpmin.Port, s.WebECN, httpmin.PoolHandler)
		if err != nil {
			continue // ports are builder-controlled; cannot happen
		}
		l.BrokenECE = s.BrokenECE
	}
}

// placeBottlenecks attaches the congestion substrate: bandwidth-limited
// RED queues on the link directions the Congested* knobs select. The
// queues draw marking randomness from the simulation PRNG lazily, so an
// uncongested configuration consumes no additional PRNG state and
// regenerates byte-identical worlds.
func (b *builder) placeBottlenecks() {
	cfg := b.cfg
	shape := func(link *netsim.Link, from netsim.Node, vantage, label string) {
		q := aqm.NewRED(cfg.BottleneckQueueLen, b.sim.RNG())
		link.SetBottleneck(from, cfg.BottleneckRate, cfg.BottleneckUtilization, q)
		b.w.Bottlenecks = append(b.w.Bottlenecks, &Bottleneck{
			Vantage:     vantage,
			Label:       label,
			Link:        link,
			Queue:       q,
			Utilization: cfg.BottleneckUtilization,
		})
	}

	if cfg.CongestedVantageAccess {
		for _, v := range b.w.Vantages {
			link := v.Host.Uplink()
			router := link.Peer(v.Host)
			shape(link, v.Host, v.Name, v.Name+"/up")
			shape(link, router, v.Name, v.Name+"/down")
		}
	}
	if cfg.CongestedTransit {
		for _, tl := range b.transitCoreDown {
			shape(tl.link, tl.core, "", tl.core.Label()+"/fwd")
			shape(tl.link, tl.down, "", tl.down.Label()+"/rev")
		}
	}
}

// --- small helpers -------------------------------------------------------

// regionSlug returns r's slug, made once per region.
func regionSlug(r geo.Region) string { return regionSlugs[r] }

var regionSlugs = func() map[geo.Region]string {
	m := map[geo.Region]string{}
	for _, r := range geo.Regions() {
		m[r] = slug(string(r))
	}
	return m
}()

func slug(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c == ' ' || c == '.' || c == '-':
			if len(out) > 0 && out[len(out)-1] != '-' {
				out = append(out, '-')
			}
		}
	}
	return string(out)
}

func countryCode(zone string) string {
	if zone == "" {
		return "??"
	}
	out := []byte(zone)
	for i := range out {
		if out[i] >= 'a' && out[i] <= 'z' {
			out[i] -= 'a' - 'A'
		}
	}
	return string(out)
}
