package topology

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/ntp"
)

// TestBlueprintMatchesBuild is the blueprint's core guarantee: a world
// instantiated from a compiled blueprint, replaying the recorded
// decisions, is indistinguishable from the one the generation run drew
// them on with the same (seed, config) — same servers, same ground
// truth, same routing, same DNS membership.
func TestBlueprintMatchesBuild(t *testing.T) {
	const seed = 2015
	cfg := SmallConfig()

	bp, err := Compile(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	direct := bp.TakeSpare(seed)
	inst, err := bp.Instantiate(netsim.NewSim(seed))
	if err != nil {
		t.Fatal(err)
	}

	if len(inst.Servers) != len(direct.Servers) {
		t.Fatalf("servers: %d vs %d", len(inst.Servers), len(direct.Servers))
	}
	for i, s := range inst.Servers {
		d := direct.Servers[i]
		if s.Addr != d.Addr || s.Region != d.Region || s.Country != d.Country ||
			s.ECTUDPFirewalled != d.ECTUDPFirewalled || s.NotECTFirewalled != d.NotECTFirewalled ||
			s.ScopedNotECT != d.ScopedNotECT || s.ScopedECT != d.ScopedECT ||
			s.Flaky != d.Flaky || s.BleachedPath != d.BleachedPath ||
			s.Web != d.Web || s.WebECN != d.WebECN || s.BrokenECE != d.BrokenECE {
			t.Fatalf("server %d ground truth diverges:\nblueprint %+v\ndirect    %+v", i, *s, *d)
		}
	}
	if len(inst.Vantages) != len(direct.Vantages) {
		t.Fatalf("vantages: %d vs %d", len(inst.Vantages), len(direct.Vantages))
	}
	for i, v := range inst.Vantages {
		d := direct.Vantages[i]
		if v.Name != d.Name || v.Host.Addr() != d.Host.Addr() ||
			v.BaseLoss != d.BaseLoss || v.LossJitter != d.LossJitter {
			t.Fatalf("vantage %d diverges: %q vs %q", i, v.Name, d.Name)
		}
	}
	if got, want := len(inst.Net.Routers()), len(direct.Net.Routers()); got != want {
		t.Fatalf("routers: %d vs %d", got, want)
	}
	for i, r := range inst.Net.Routers() {
		d := direct.Net.Routers()[i]
		if r.Addr() != d.Addr() || r.Label() != d.Label() {
			t.Fatalf("router %d: %s/%s vs %s/%s", i, r.Label(), r.Addr(), d.Label(), d.Addr())
		}
	}
	if len(inst.BleachRouters) != len(direct.BleachRouters) {
		t.Fatalf("bleach routers: %d vs %d", len(inst.BleachRouters), len(direct.BleachRouters))
	}
	for id, kind := range direct.BleachRouters {
		if inst.BleachRouters[id] != kind {
			t.Fatalf("bleach router %d: %q vs %q", id, inst.BleachRouters[id], kind)
		}
	}
	// Routing ground truth: identical router paths vantage → server.
	for _, v := range inst.Vantages {
		dv, _ := direct.VantageByName(v.Name)
		for _, s := range []int{0, len(inst.Servers) / 2, len(inst.Servers) - 1} {
			a, errA := inst.Net.PathRouters(v.Host, inst.Servers[s].Addr)
			b, errB := direct.Net.PathRouters(dv.Host, direct.Servers[s].Addr)
			if (errA != nil) != (errB != nil) || len(a) != len(b) {
				t.Fatalf("%s → server %d: path %d/%v vs %d/%v", v.Name, s, len(a), errA, len(b), errB)
			}
			for i := range a {
				if a[i].Addr() != b[i].Addr() {
					t.Fatalf("%s → server %d hop %d: %s vs %s", v.Name, s, i, a[i].Addr(), b[i].Addr())
				}
			}
		}
	}
	// DNS membership: same zones, same sizes.
	zd, zi := direct.Directory.Zones(), inst.Directory.Zones()
	if len(zd) != len(zi) {
		t.Fatalf("zones: %d vs %d", len(zi), len(zd))
	}
	for i := range zd {
		if zd[i] != zi[i] {
			t.Fatalf("zone %d: %q vs %q", i, zi[i], zd[i])
		}
		if a, b := zoneSize(inst.Directory, zi[i]), zoneSize(direct.Directory, zd[i]); a != b {
			t.Fatalf("zone %q: size %d vs %d", zd[i], a, b)
		}
	}
}

// TestBlueprintInstancesAreIndependent: two instances of one blueprint
// must not leak simulation state into each other — traffic in one leaves
// the other's clocks, counters and DNS cursors untouched.
func TestBlueprintInstancesAreIndependent(t *testing.T) {
	bp, err := Compile(SmallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	simA, simB := netsim.NewSim(7), netsim.NewSim(7)
	wa, err := bp.Instantiate(simA)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := bp.Instantiate(simB)
	if err != nil {
		t.Fatal(err)
	}

	// Drive NTP traffic in A only.
	v := wa.Vantages[0]
	got := 0
	for i := 0; i < 5; i++ {
		ntp.Probe(v.Host, wa.Servers[i].Addr, ecn.ECT0, func(r ntp.ProbeResult) {
			if r.Reachable {
				got++
			}
		})
	}
	simA.Run()
	if got == 0 {
		t.Fatal("no NTP responses in instance A")
	}
	if simB.Now() != 0 || simB.Executed() != 0 {
		t.Errorf("instance B simulator moved: now=%v executed=%d", simB.Now(), simB.Executed())
	}
	if wb.Vantages[0].Host.Sent != 0 {
		t.Errorf("instance B vantage sent %d packets", wb.Vantages[0].Host.Sent)
	}
	if n := wb.Servers[0].Host.Received; n != 0 {
		t.Errorf("instance B server received %d packets", n)
	}
	// Resolving in A must not advance B's round-robin cursor.
	a1, _ := wa.Directory.Resolve("pool.ntp.org")
	b1, _ := wb.Directory.Resolve("pool.ntp.org")
	if len(a1) == 0 || len(b1) == 0 {
		t.Fatal("empty resolution")
	}
	for i := range a1 {
		if a1[i] != b1[i] {
			t.Errorf("first resolution differs: %v vs %v", a1, b1)
		}
	}
}

// TestBlueprintInstantiateFast: instantiation must skip the expensive
// generation steps — at small scale it should be far under the direct
// build, and consume no simulator PRNG state.
func TestBlueprintInstantiateFast(t *testing.T) {
	bp, err := Compile(SmallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSim(3)
	before := sim.RNG().Uint64()
	sim.Reseed(3)
	start := time.Now()
	if _, err := bp.Instantiate(sim); err != nil {
		t.Fatal(err)
	}
	t.Logf("instantiate: %v", time.Since(start))
	after := sim.RNG().Uint64()
	if before != after {
		t.Error("Instantiate consumed simulator PRNG state")
	}
}

// TestSpareSharesOnlyTheBlueprint: the world compiling built is handed
// out once, and only to a caller whose seed it was built from; it
// shares exactly what an instantiated world shares with the blueprint —
// routes, address index, geo and ASN databases — and owns its DNS
// directory, as every instantiation's clone does.
func TestSpareSharesOnlyTheBlueprint(t *testing.T) {
	const seed = 7
	bp, err := Compile(SmallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if w := bp.TakeSpare(seed + 1); w != nil {
		t.Fatal("spare handed to a simulator of another seed")
	}
	spare := bp.TakeSpare(seed)
	if spare == nil {
		t.Fatal("no spare for the seed it was built from")
	}
	if again := bp.TakeSpare(seed); again != nil {
		t.Fatal("spare handed out twice")
	}
	fresh, err := bp.Instantiate(bp.NewSim(seed))
	if err != nil {
		t.Fatal(err)
	}

	// The forwarding rows and the address index are the frozen table's:
	// the spare's own, which ImportRoutes hands every instantiation.
	for _, field := range []string{"nextHop", "index"} {
		routes := func(w *World) uintptr { return reflect.ValueOf(w.Net).Elem().FieldByName(field).Pointer() }
		if routes(spare) != routes(fresh) {
			t.Errorf("Network.%s: the spare's is not the blueprint's", field)
		}
	}
	if spare.Geo != fresh.Geo || spare.ASN != fresh.ASN {
		t.Error("the spare's geo or ASN database is not the blueprint's")
	}
	if spare.Directory == bp.shared.dir {
		t.Error("the spare serves DNS from the blueprint's membership template: its rotation cursors are the template's")
	}
}
