package topology

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dnspool"
	"repro/internal/ecn"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/ntp"
	"repro/internal/packet"
)

// generate is the world Compile's generation run builds for (cfg, seed)
// on netsim.NewSim(seed): the blueprint's spare, not reset.
func generate(cfg Config, seed int64) (*World, error) {
	bp, err := Compile(cfg, seed)
	if err != nil {
		return nil, err
	}
	return bp.TakeSpare(seed), nil
}

func buildSmall(t *testing.T, seed int64) *World {
	t.Helper()
	w, err := generate(SmallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildSmallStructure(t *testing.T) {
	w := buildSmall(t, 1)
	if len(w.Servers) != 120 {
		t.Errorf("servers = %d", len(w.Servers))
	}
	if len(w.Vantages) != 13 {
		t.Errorf("vantages = %d, want the paper's 13", len(w.Vantages))
	}
	if w.DNSAddr.IsZero() {
		t.Error("no DNS directory")
	}
	if w.ASN.ASCount() < 20 {
		t.Errorf("only %d ASes", w.ASN.ASCount())
	}
	if len(w.BleachRouters) != 4 { // 2 border + 1 interior + 1 sometimes
		t.Errorf("bleach routers = %d", len(w.BleachRouters))
	}
}

func TestRegionDistribution(t *testing.T) {
	w := buildSmall(t, 2)
	counts := w.Geo.RegionCounts(w.ServerAddrs())
	cfg := SmallConfig()
	for region, want := range cfg.RegionServers {
		got := counts[region]
		if region == geo.Unknown {
			// Unknown servers have no geo record and fall into Unknown
			// via the lookup miss path.
			continue
		}
		if got != want {
			t.Errorf("region %s: %d servers, want %d", region, got, want)
		}
	}
	if counts[geo.Unknown] != cfg.RegionServers[geo.Unknown] {
		t.Errorf("unknown = %d, want %d", counts[geo.Unknown], cfg.RegionServers[geo.Unknown])
	}
}

func TestEveryServerReachableFromEveryVantage(t *testing.T) {
	w := buildSmall(t, 3)
	for _, v := range w.Vantages {
		for i, s := range w.Servers {
			if i%7 != 0 { // sample: full cross-product is slow in -race
				continue
			}
			if _, err := w.Net.PathRouters(v.Host, s.Addr); err != nil {
				t.Fatalf("%s cannot reach %s: %v", v.Name, s.Addr, err)
			}
		}
	}
}

func TestPathLengthsRealistic(t *testing.T) {
	w := buildSmall(t, 4)
	min, max := 1000, 0
	for _, v := range w.Vantages {
		for i, s := range w.Servers {
			if i%11 != 0 {
				continue
			}
			path, err := w.Net.PathRouters(v.Host, s.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) < min {
				min = len(path)
			}
			if len(path) > max {
				max = len(path)
			}
		}
	}
	if min < 5 || max > 20 {
		t.Errorf("path lengths [%d, %d]; want Internet-like 5–20", min, max)
	}
}

func TestNTPServersAnswer(t *testing.T) {
	w := buildSmall(t, 5)
	v := w.Vantages[0]
	reached := 0
	var probeNext func(i int)
	probeNext = func(i int) {
		if i >= 10 {
			return
		}
		ntp.Probe(v.Host, w.Servers[i].Addr, ecn.ECT0, func(r ntp.ProbeResult) {
			if r.Reachable {
				reached++
			}
			probeNext(i + 1)
		})
	}
	probeNext(0)
	w.Sim.Run()
	if reached != 10 {
		t.Errorf("reached %d of 10 servers (all online, clean links)", reached)
	}
}

func TestFirewalledServerGroundTruth(t *testing.T) {
	w := buildSmall(t, 6)
	cfg := SmallConfig()
	var ect, notect, scopedNot, scopedEct, flaky int
	for _, s := range w.Servers {
		if s.ECTUDPFirewalled {
			ect++
		}
		if s.NotECTFirewalled {
			notect++
		}
		if s.ScopedNotECT {
			scopedNot++
		}
		if s.ScopedECT {
			scopedEct++
		}
		if s.Flaky {
			flaky++
		}
	}
	if ect != cfg.ECTUDPFirewalledServers || notect != cfg.NotECTFirewalledServers ||
		scopedNot != cfg.SourceScopedNotECTServers || scopedEct != cfg.SourceScopedECTServers ||
		flaky != cfg.FlakyServers {
		t.Errorf("special counts = %d/%d/%d/%d/%d", ect, notect, scopedNot, scopedEct, flaky)
	}
}

func TestECTFirewallBlocksOnlyECT(t *testing.T) {
	w := buildSmall(t, 7)
	var target *Server
	for _, s := range w.Servers {
		if s.ECTUDPFirewalled {
			target = s
			break
		}
	}
	if target == nil {
		t.Fatal("no firewalled server")
	}
	v := w.Vantages[0]
	var notECT, ect ntp.ProbeResult
	ntp.Probe(v.Host, target.Addr, ecn.NotECT, func(r ntp.ProbeResult) {
		notECT = r
		ntp.Probe(v.Host, target.Addr, ecn.ECT0, func(r2 ntp.ProbeResult) { ect = r2 })
	})
	w.Sim.Run()
	if !notECT.Reachable {
		t.Error("not-ECT probe blocked by ECT firewall")
	}
	if ect.Reachable {
		t.Error("ECT(0) probe passed the site firewall")
	}
}

func TestNotECTFirewallAsymmetry(t *testing.T) {
	// The Figure 3b server: unreachable with not-ECT UDP but reachable
	// with ECT(0) — which requires the site firewall to pass the
	// server's own (not-ECT) replies.
	w := buildSmall(t, 14)
	var target *Server
	for _, s := range w.Servers {
		if s.NotECTFirewalled {
			target = s
			break
		}
	}
	if target == nil {
		t.Fatal("no not-ECT-firewalled server")
	}
	v := w.Vantages[0]
	var plain, ect ntp.ProbeResult
	ntp.Probe(v.Host, target.Addr, ecn.NotECT, func(r ntp.ProbeResult) {
		plain = r
		ntp.Probe(v.Host, target.Addr, ecn.ECT0, func(r2 ntp.ProbeResult) { ect = r2 })
	})
	w.Sim.Run()
	if plain.Reachable {
		t.Error("not-ECT probe passed a drop-not-ECT firewall")
	}
	if !ect.Reachable {
		t.Error("ECT(0) probe blocked; reply direction must pass the site firewall")
	}
}

func TestScopedECTFirewallOnlyAffectsScopedVantages(t *testing.T) {
	w := buildSmall(t, 8)
	var target *Server
	for _, s := range w.Servers {
		if s.ScopedECT {
			target = s
			break
		}
	}
	if target == nil {
		t.Fatal("no scoped server")
	}
	inScope, _ := w.VantageByName("EC2 Sao Paulo")
	outScope, _ := w.VantageByName("EC2 California")

	var fromIn, fromOut ntp.ProbeResult
	ntp.Probe(inScope.Host, target.Addr, ecn.ECT0, func(r ntp.ProbeResult) {
		fromIn = r
		ntp.Probe(outScope.Host, target.Addr, ecn.ECT0, func(r2 ntp.ProbeResult) { fromOut = r2 })
	})
	w.Sim.Run()
	if fromIn.Reachable {
		t.Error("scoped firewall passed ECT from in-scope vantage")
	}
	if !fromOut.Reachable {
		t.Error("scoped firewall blocked ECT from out-of-scope vantage")
	}
}

func TestWebServerFractions(t *testing.T) {
	cfg := DefaultConfig() // statistics need the full population
	w, err := generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	web, webECN := 0, 0
	for _, s := range w.Servers {
		if s.Web {
			web++
			if s.WebECN {
				webECN++
			}
		}
	}
	webFrac := float64(web) / float64(len(w.Servers))
	if webFrac < cfg.WebServerFraction-0.03 || webFrac > cfg.WebServerFraction+0.03 {
		t.Errorf("web fraction = %.3f, want ≈ %.3f", webFrac, cfg.WebServerFraction)
	}
	ecnFrac := float64(webECN) / float64(web)
	if ecnFrac < cfg.TCPECNFraction-0.04 || ecnFrac > cfg.TCPECNFraction+0.04 {
		t.Errorf("ECN fraction = %.3f, want ≈ %.3f", ecnFrac, cfg.TCPECNFraction)
	}
}

func TestApplyTraceConditions(t *testing.T) {
	w := buildSmall(t, 10)
	v := w.Vantages[0]
	rng := w.Sim.RNG()
	w.ApplyTraceConditions(v, Batch1, rng)
	online1 := 0
	for _, s := range w.Servers {
		if s.Host.Online() {
			online1++
		}
	}
	if online1 == 0 || online1 == len(w.Servers) {
		t.Errorf("batch1 online = %d of %d; churn not applied", online1, len(w.Servers))
	}
	// Vantage access loss must be within [base, base+jitter].
	loss := v.Host.Uplink().Loss()
	if loss < v.BaseLoss || loss > v.BaseLoss+v.LossJitter+1e-9 {
		t.Errorf("vantage loss = %v, want in [%v, %v]", loss, v.BaseLoss, v.BaseLoss+v.LossJitter)
	}
	// Batch 2 should, on average over several rolls, have fewer online.
	sum1, sum2 := 0, 0
	for i := 0; i < 10; i++ {
		w.ApplyTraceConditions(v, Batch1, rng)
		for _, s := range w.Servers {
			if s.Host.Online() {
				sum1++
			}
		}
		w.ApplyTraceConditions(v, Batch2, rng)
		for _, s := range w.Servers {
			if s.Host.Online() {
				sum2++
			}
		}
	}
	if sum2 >= sum1 {
		t.Errorf("batch2 online (%d) not below batch1 (%d) across 10 rolls", sum2, sum1)
	}
}

func TestDeterministicBuild(t *testing.T) {
	a := buildSmall(t, 42)
	b := buildSmall(t, 42)
	if len(a.Servers) != len(b.Servers) {
		t.Fatal("server counts differ")
	}
	for i := range a.Servers {
		sa, sb := a.Servers[i], b.Servers[i]
		if sa.Addr != sb.Addr || sa.Web != sb.Web || sa.WebECN != sb.WebECN ||
			sa.ECTUDPFirewalled != sb.ECTUDPFirewalled || sa.Flaky != sb.Flaky {
			t.Fatalf("server %d differs between identical seeds", i)
		}
	}
	if len(a.BleachRouters) != len(b.BleachRouters) {
		t.Error("bleach placement differs")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cfg := SmallConfig()
	cfg.Servers = 10 // region counts no longer sum
	if _, err := generate(cfg, 1); err == nil {
		t.Error("bad region sum accepted")
	}
	cfg = SmallConfig()
	cfg.FlakyServers = cfg.Servers
	if _, err := generate(cfg, 1); err == nil {
		t.Error("overfull special population accepted")
	}
}

// zoneSize counts a zone's members the way a poller discovers them:
// by resolving it until an answer holds no address not seen before.
// Successive answers are consecutive windows of the zone's rotation, so
// the first answer with nothing new comes once all have been seen.
func zoneSize(d *dnspool.Directory, name string) int {
	seen := make(map[packet.Addr]bool)
	for {
		addrs, ok := d.Resolve(name)
		n := len(seen)
		for _, a := range addrs {
			seen[a] = true
		}
		if !ok || len(seen) == n {
			return len(seen)
		}
	}
}

func TestDNSDirectoryCoversPool(t *testing.T) {
	w := buildSmall(t, 11)
	if got := zoneSize(w.Directory, "pool.ntp.org"); got != len(w.Servers) {
		t.Errorf("apex zone = %d, want %d", got, len(w.Servers))
	}
	// Spot-check a country zone exists.
	total := 0
	for _, z := range w.CountryZones {
		total += zoneSize(w.Directory, z+".pool.ntp.org")
	}
	if total == 0 {
		t.Error("no country zone members")
	}
}

func TestASBoundaryGroundTruth(t *testing.T) {
	w := buildSmall(t, 12)
	// Bleach routers marked "border" must have their stub's transit
	// neighbour in a different AS; "interior" in the same AS.
	routers := w.Net.Routers()
	for id, kind := range w.BleachRouters {
		r := routers[id]
		if kind == "interior" || kind == "sometimes-interior" {
			continue
		}
		// Border routers: at least one neighbour with a different ASN.
		// (Verified indirectly through the ASN table.)
		info, ok := w.ASN.Lookup(r.Addr())
		if !ok {
			t.Errorf("bleach router %s unmapped", r.Addr())
			continue
		}
		_ = info
	}
}

func TestVantageLossCalibrationOrder(t *testing.T) {
	w := buildSmall(t, 13)
	get := func(name string) *Vantage {
		v, ok := w.VantageByName(name)
		if !ok {
			t.Fatalf("vantage %q missing", name)
		}
		return v
	}
	mcq := get("McQuistin home")
	perkins := get("Perkins home")
	wireless := get("U. Glasgow wireless")
	wired := get("U. Glasgow wired")
	if !(mcq.BaseLoss > wireless.BaseLoss && wireless.BaseLoss > perkins.BaseLoss && perkins.BaseLoss > wired.BaseLoss) {
		t.Error("vantage loss ordering violates the paper's observations")
	}
}

func TestBuildTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build in -short mode")
	}
	start := time.Now()
	w, err := generate(DefaultConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(w.Servers) != 2500 {
		t.Errorf("servers = %d", len(w.Servers))
	}
	if elapsed > 30*time.Second {
		t.Errorf("full build took %v", elapsed)
	}
	t.Logf("full world: %s in %v", w, elapsed)
	_ = packet.Addr{}
}

// TestServerByAddr: the address index every world of a blueprint shares
// resolves each server to its own ground truth, on the generation world
// and on an instantiated one, and no other address — a vantage, the DNS
// host, a router, an unknown one — to a server.
func TestServerByAddr(t *testing.T) {
	bp, err := Compile(SmallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bp.Instantiate(netsim.NewSim(5))
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*World{"generation": bp.spare.Load(), "instantiated": inst} {
		for _, s := range w.Servers {
			if got, ok := w.ServerByAddr(s.Addr); !ok || got != s {
				t.Fatalf("%s world: ServerByAddr(%s) = %v, %v", name, s.Addr, got, ok)
			}
		}
		others := []packet.Addr{w.DNSAddr, w.Net.Routers()[0].Addr(), packet.AddrFrom4(192, 0, 2, 1)}
		for _, v := range w.Vantages {
			others = append(others, v.Host.Addr())
		}
		for _, a := range others {
			if s, ok := w.ServerByAddr(a); ok {
				t.Errorf("%s world: ServerByAddr(%s) = server %s", name, a, s.Addr)
			}
		}
	}
}

// TestBuildSizeExact: Config.size counts exactly what the builder makes
// — routers, hosts, links, stubs, transit ASes and all ASes — for the
// small and paper worlds and for one whose servers, stubs and transits
// do not divide evenly; and no registry, server list or DNS zone the
// build fills grew past what it was sized at.
func TestBuildSizeExact(t *testing.T) {
	odd := DefaultConfig()
	odd.ServersPerStub, odd.StubsPerTransit = 7, 3
	// sizedOnce: v's capacity is its length, or what growing an empty
	// slice to its length gives (slices.Grow) — not a doubling's.
	sizedOnce := func(v reflect.Value) bool {
		g := reflect.New(v.Type()).Elem()
		g.Grow(v.Len())
		return v.Cap() == v.Len() || v.Cap() == g.Cap()
	}
	for name, cfg := range map[string]Config{"small": SmallConfig(), "paper": DefaultConfig(), "odd": odd} {
		b := newBuilder(netsim.NewSim(1), cfg)
		b.rec = &decisionTrace{}
		w, err := b.run()
		if err != nil {
			t.Fatal(err)
		}
		net := reflect.ValueOf(w.Net).Elem()
		got := buildSize{routers: len(w.Net.Routers()), hosts: net.FieldByName("hosts").Len(),
			links: net.FieldByName("links").Len(), stubs: len(b.stubs), transits: len(b.transitCoreDown), ases: w.ASN.Len()}
		if want := cfg.size(); got != want {
			t.Errorf("%s: built %+v, size counts %+v", name, got, want)
		}
		filled := map[string]reflect.Value{"servers": reflect.ValueOf(w.Servers)}
		for _, f := range []string{"routers", "hosts", "links"} {
			filled[f] = net.FieldByName(f)
		}
		for it := reflect.ValueOf(w.Directory).Elem().FieldByName("zones").MapRange(); it.Next(); {
			filled["zone "+it.Key().String()] = it.Value().Elem().FieldByName("members")
		}
		for what, v := range filled {
			if !sizedOnce(v) {
				t.Errorf("%s: %s holds %d with capacity %d: grown, not sized once", name, what, v.Len(), v.Cap())
			}
		}
	}
}

// TestPermPrefixMatchesPerm: permPrefix(n, k) is rand.Perm(n)'s first k
// entries, and leaves the generator where Perm does, so the draws after
// firewall placement — the role rolls — are unchanged.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, c := range []struct {
		seed int64
		n, k int
	}{{1, 0, 0}, {2, 1, 1}, {3, 10, 0}, {4, 10, 3}, {5, 10, 10}, {6, 120, 17}, {7, 2500, 95}, {8, 2500, 2500}} {
		want, got := rand.New(rand.NewSource(c.seed)), rand.New(rand.NewSource(c.seed))
		perm := want.Perm(c.n)[:c.k]
		prefix := permPrefix(got, c.n, c.k)
		if !slices.Equal(prefix, perm) {
			t.Errorf("permPrefix(%d, %d) = %v, want %v", c.n, c.k, prefix, perm)
		}
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Errorf("permPrefix(%d, %d) left the generator at %d, Perm at %d", c.n, c.k, a, b)
		}
	}
}
