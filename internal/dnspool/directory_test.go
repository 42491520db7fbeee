package dnspool

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

func poolAddr(i int) packet.Addr {
	return packet.AddrFrom4(20, byte(i>>8), byte(i), 1)
}

func TestDirectoryRoundRobinCoversAll(t *testing.T) {
	d := NewDirectory()
	const n = 10
	for i := 0; i < n; i++ {
		d.AddServer(poolAddr(i), "uk")
	}
	seen := map[packet.Addr]bool{}
	for q := 0; q < 3; q++ { // 3 queries × 4 answers ≥ 10 members
		addrs, ok := d.Resolve("pool.ntp.org")
		if !ok {
			t.Fatal("zone missing")
		}
		if len(addrs) != AnswersPerQuery {
			t.Fatalf("answers = %d", len(addrs))
		}
		for _, a := range addrs {
			seen[a] = true
		}
	}
	if len(seen) != n {
		t.Errorf("round robin covered %d of %d", len(seen), n)
	}
}

func TestDirectoryZones(t *testing.T) {
	d := NewDirectory()
	d.AddServer(poolAddr(1), "uk", "europe")
	d.AddServer(poolAddr(2), "de", "europe")
	for zone, want := range map[string]int{"pool.ntp.org": 2, "europe.pool.ntp.org": 2, "uk.pool.ntp.org": 1} {
		if got := len(d.zones[zone].members); got != want {
			t.Errorf("%s size = %d, want %d", zone, got, want)
		}
	}
	if d.zones["fr.pool.ntp.org"] != nil {
		t.Error("phantom zone")
	}
	if len(d.Zones()) != 4 {
		t.Errorf("zones = %v", d.Zones())
	}
}

func TestDirectoryCaseInsensitive(t *testing.T) {
	d := NewDirectory()
	d.AddServer(poolAddr(1), "UK")
	if _, ok := d.Resolve("uk.POOL.ntp.ORG"); !ok {
		t.Error("case-sensitive lookup")
	}
}

func TestResolveUnknownZone(t *testing.T) {
	d := NewDirectory()
	if _, ok := d.Resolve("xx.pool.ntp.org"); ok {
		t.Error("unknown zone resolved")
	}
}

func TestResolveSmallZone(t *testing.T) {
	d := NewDirectory()
	d.AddServer(poolAddr(1), "sg")
	addrs, ok := d.Resolve("sg.pool.ntp.org")
	if !ok || len(addrs) != 1 {
		t.Errorf("small zone answers = %v,%v", addrs, ok)
	}
}

// simDirectory wires a client and directory host through one router.
func simDirectory(t *testing.T, servers int, zones map[int]string) (*netsim.Sim, *netsim.Host, packet.Addr, *Directory) {
	t.Helper()
	sim := netsim.NewSim(11)
	n := netsim.NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 64500)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	dnsHost, _ := n.AddHost("dns", packet.AddrFrom4(10, 0, 0, 53))
	n.Attach(client, r, time.Millisecond, 0)
	n.Attach(dnsHost, r, time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	d := NewDirectory()
	for i := 0; i < servers; i++ {
		d.AddServer(poolAddr(i), zones[i])
	}
	if err := d.AttachSim(dnsHost); err != nil {
		t.Fatal(err)
	}
	return sim, client, dnsHost.Addr(), d
}

func TestDiscoverEnumeratesPool(t *testing.T) {
	zones := map[int]string{}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			zones[i] = "uk"
		} else {
			zones[i] = "de"
		}
	}
	sim, client, resolver, dir := simDirectory(t, 40, zones)

	var got DiscoverResult
	Discover(client, DiscoverConfig{
		Resolver: resolver,
		Zones:    []string{"uk", "de"},
		Rounds:   8,
	}, func(r DiscoverResult) { got = r })
	sim.Run()

	if len(got.Servers) != 40 {
		t.Fatalf("discovered %d of 40 servers", len(got.Servers))
	}
	for i := 1; i < len(got.Servers); i++ {
		if !got.Servers[i-1].Less(got.Servers[i]) {
			t.Fatal("servers not sorted/deduped")
		}
	}
	if got.QueriesSent != 8*3 {
		t.Errorf("queries sent = %d, want 24", got.QueriesSent)
	}
	if got.ResponsesReceived != got.QueriesSent {
		t.Errorf("responses = %d of %d", got.ResponsesReceived, got.QueriesSent)
	}
	if dir.Queries != uint64(got.QueriesSent) {
		t.Errorf("directory saw %d queries", dir.Queries)
	}
}

func TestDiscoverToleratesTimeouts(t *testing.T) {
	sim, client, resolver, _ := simDirectory(t, 8, nil)
	client.Uplink().SetLossBoth(0.4)

	done := false
	Discover(client, DiscoverConfig{
		Resolver: resolver,
		Rounds:   6,
	}, func(r DiscoverResult) {
		done = true
		if len(r.Servers) == 0 {
			t.Error("nothing discovered despite repeated rounds")
		}
		if r.ResponsesReceived >= r.QueriesSent {
			t.Error("expected some query losses at 40% link loss")
		}
	})
	sim.Run()
	if !done {
		t.Fatal("discovery never completed")
	}
}

func TestDirectoryIgnoresGarbage(t *testing.T) {
	sim, client, resolver, dir := simDirectory(t, 2, nil)
	// Raw garbage to port 53 must not crash or count as a query.
	client.SendUDP(resolver, 40000, DNSPort, 64, 0, []byte{1, 2, 3})
	sim.Run()
	if dir.Queries != 0 {
		t.Errorf("garbage counted as query: %d", dir.Queries)
	}
}
