package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/ecn"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

func smallWorld(t *testing.T, seed int64) *topology.World {
	t.Helper()
	bp, err := topology.Compile(topology.SmallConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return bp.TakeSpare(seed)
}

func TestProbeServerFourMeasurements(t *testing.T) {
	w := smallWorld(t, 1)
	v := w.Vantages[0]

	// Find an online web+ECN server with no middlebox quirks.
	var target *topology.Server
	for _, s := range w.Servers {
		if s.Web && s.WebECN && !s.ECTUDPFirewalled && !s.NotECTFirewalled && !s.ScopedECT && !s.ScopedNotECT {
			target = s
			break
		}
	}
	if target == nil {
		t.Fatal("no suitable server")
	}

	var got dataset.Observation
	ProbeServer(v, target.Addr, func(o dataset.Observation) { got = o })
	w.Sim.Run()

	if !got.UDPReachable || !got.UDPECTReachable {
		t.Errorf("UDP reachability = %v/%v", got.UDPReachable, got.UDPECTReachable)
	}
	if !got.TCPReachable || !got.TCPECN || !got.TCPECNReachable {
		t.Errorf("TCP = %v ECN = %v", got.TCPReachable, got.TCPECN)
	}
	if got.HTTPStatus != 302 {
		t.Errorf("HTTP status = %d, want pool redirect", got.HTTPStatus)
	}
	if got.UDPAttempts != 1 {
		t.Errorf("UDP attempts = %d", got.UDPAttempts)
	}
}

// TestProbeServerAllocFree: the four-measurement sequence runs in one
// shell on the vantage's free list — taken and returned by every
// ProbeServer, under the race detector too — and, with ntp's and
// httpmin's shells and tcpsim's connections recycled the same way, a
// whole observation allocates nothing once each exists.
func TestProbeServerAllocFree(t *testing.T) {
	w := smallWorld(t, 1)
	v := w.Vantages[0]
	var target *topology.Server
	for _, s := range w.Servers {
		if s.Web && s.WebECN && !s.ECTUDPFirewalled && !s.NotECTFirewalled && !s.ScopedECT && !s.ScopedNotECT {
			target = s
			break
		}
	}
	if target == nil {
		t.Fatal("no suitable server")
	}
	var status uint16
	done := func(o dataset.Observation) { status = o.HTTPStatus }
	run := func() {
		status = 0
		ProbeServer(v, target.Addr, done)
		w.Sim.Run()
		if status != 302 {
			t.Fatalf("HTTP status = %d, want pool redirect", status)
		}
	}
	run()
	shell, _ := v.UserData.(*serverProbe)
	if shell == nil || shell.next != nil {
		t.Fatalf("after one observation the vantage's free list is %+v, want exactly one shell", shell)
	}
	run()
	if again, _ := v.UserData.(*serverProbe); again != shell || again.next != nil {
		t.Fatal("the second observation did not take and return the first one's shell")
	}
	if raceEnabled {
		return // the wire buffers' sync.Pool drops Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("a four-measurement observation allocates %.1f times per run, want 0", allocs)
	}
}

func TestProbeServerECTFirewalled(t *testing.T) {
	w := smallWorld(t, 2)
	v := w.Vantages[0]
	var target *topology.Server
	for _, s := range w.Servers {
		if s.ECTUDPFirewalled {
			target = s
			break
		}
	}
	var got dataset.Observation
	ProbeServer(v, target.Addr, func(o dataset.Observation) { got = o })
	w.Sim.Run()

	if !got.UDPReachable {
		t.Error("not-ECT UDP should reach")
	}
	if got.UDPECTReachable {
		t.Error("ECT UDP should be blocked")
	}
	if got.UDPECTAttempts != 6 {
		t.Errorf("ECT attempts = %d, want all 6", got.UDPECTAttempts)
	}
	// The firewall only drops UDP: TCP (and TCP ECN, if the server
	// negotiates) still works — Table 2's key observation.
	if target.Web && !got.TCPReachable {
		t.Error("TCP blocked despite UDP-only firewall")
	}
}

func TestProbeServerOffline(t *testing.T) {
	w := smallWorld(t, 3)
	v := w.Vantages[0]
	target := w.Servers[0]
	target.Host.SetOnline(false)

	var got dataset.Observation
	ProbeServer(v, target.Addr, func(o dataset.Observation) { got = o })
	w.Sim.Run()
	if got.UDPReachable || got.UDPECTReachable || got.TCPReachable || got.TCPECN {
		t.Errorf("offline server shows reachability: %+v", got)
	}
}

func TestRunTraceCoversAllServers(t *testing.T) {
	w := smallWorld(t, 4)
	v := w.Vantages[0]
	// All online, clean conditions.
	var tr dataset.Trace
	servers := w.ServerAddrs()[:30]
	RunTrace(v, servers, topology.Batch1, 7, func(t dataset.Trace) { tr = t })
	w.Sim.Run()

	if len(tr.Observations) != 30 {
		t.Fatalf("observations = %d", len(tr.Observations))
	}
	if tr.Vantage != v.Name || tr.Batch != 1 || tr.Index != 7 {
		t.Errorf("trace meta = %+v", tr)
	}
	for i, o := range tr.Observations {
		if o.Server != servers[i] {
			t.Fatalf("observation %d out of order", i)
		}
	}
}

func TestTracerouteCampaign(t *testing.T) {
	w := smallWorld(t, 7)
	var obs []PathObservation
	RunTracerouteCampaign(w, TracerouteCampaignConfig{
		Vantages:     []string{"EC2 Ireland", "Perkins home"},
		TargetStride: 3,
		Config:       traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
	}, func(o []PathObservation) { obs = o })
	w.Sim.Run()

	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	preserved, bleached := 0, 0
	vantagesSeen := map[uint8]bool{}
	for _, o := range obs {
		vantagesSeen[o.Vantage] = true
		if !o.Responded {
			continue
		}
		switch o.Transition {
		case ecn.Preserved:
			preserved++
		case ecn.Bleached:
			bleached++
		}
	}
	if len(vantagesSeen) != 2 {
		t.Errorf("vantages = %v", vantagesSeen)
	}
	if preserved == 0 {
		t.Error("no preserved hops")
	}
	if bleached == 0 {
		t.Error("no bleached hops despite bleaching stubs in topology")
	}
	frac := float64(preserved) / float64(preserved+bleached)
	if frac < 0.80 {
		t.Errorf("preserved fraction = %.3f; bleaching should be rare", frac)
	}
}
