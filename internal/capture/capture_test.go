package capture

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
)

func wireOf(t *testing.T, cp ecn.Codepoint, id uint16) []byte {
	t.Helper()
	w, err := packet.BuildUDP(
		packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("10.0.0.2"),
		1000, 123, 64, cp, id, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRecorderBasic(t *testing.T) {
	r := NewRecorder(0)
	r.Tap(netsim.TapOut, time.Millisecond, wireOf(t, ecn.ECT0, 1))
	r.Tap(netsim.TapIn, 2*time.Millisecond, wireOf(t, ecn.NotECT, 2))
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	recs := r.Records()
	if recs[0].Dir != netsim.TapOut || recs[1].Dir != netsim.TapIn {
		t.Error("directions wrong")
	}
	if recs[0].At != time.Millisecond {
		t.Error("timestamp wrong")
	}
}

func TestRecorderCopiesWire(t *testing.T) {
	r := NewRecorder(0)
	w := wireOf(t, ecn.ECT0, 1)
	r.Tap(netsim.TapOut, 0, w)
	w[1] = 0xFF // mutate original: record must be unaffected
	cp, _ := packet.WireECN(r.Records()[0].Wire)
	if cp != ecn.ECT0 {
		t.Error("recorder shares caller's buffer")
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Tap(netsim.TapOut, time.Duration(i)*time.Second, wireOf(t, ecn.NotECT, uint16(i)))
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if r.Overwritten() != 2 {
		t.Errorf("overwritten = %d", r.Overwritten())
	}
	recs := r.Records()
	// Oldest two displaced: first retained record is i=2.
	if recs[0].At != 2*time.Second || recs[2].At != 4*time.Second {
		t.Errorf("ring order wrong: %v, %v", recs[0].At, recs[2].At)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	recs := []Record{
		{At: 1500 * time.Millisecond, Dir: netsim.TapOut, Wire: wireOf(t, ecn.ECT0, 1)},
		{At: 2750 * time.Millisecond, Dir: netsim.TapIn, Wire: wireOf(t, ecn.NotECT, 2)},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i].Wire, recs[i].Wire) {
			t.Errorf("record %d wire mismatch", i)
		}
		if got[i].At != recs[i].At {
			t.Errorf("record %d time = %v, want %v", i, got[i].At, recs[i].At)
		}
	}
	// The wire bytes must still decode as valid IP.
	if _, err := packet.Decode(got[0].Wire); err != nil {
		t.Errorf("captured packet no longer decodes: %v", err)
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	WritePcap(&buf, nil)
	raw := buf.Bytes()
	raw[20] = 1 // link type Ethernet
	if _, err := ReadPcap(bytes.NewReader(raw)); err == nil {
		t.Error("wrong link type accepted")
	}
}

func TestEndToEndCaptureOnHost(t *testing.T) {
	sim := netsim.NewSim(1)
	n := netsim.NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 64500)
	a, _ := n.AddHost("a", packet.AddrFrom4(10, 0, 0, 1))
	b, _ := n.AddHost("b", packet.AddrFrom4(10, 0, 0, 2))
	n.Attach(a, r, time.Millisecond, 0)
	n.Attach(b, r, time.Millisecond, 0)
	n.ComputeRoutes()

	rec := NewRecorder(0)
	a.AddTap(rec.Tap)
	b.BindUDP(123, func(h *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		h.SendUDP(ip.Src, 123, udp.SrcPort, 64, ecn.NotECT, payload)
	})
	a.BindUDP(5000, func(h *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {})
	a.SendUDP(b.Addr(), 5000, 123, 64, ecn.ECT0, []byte("ping"))
	sim.Run()

	recs := rec.Records()
	if len(recs) != 2 {
		t.Fatalf("captured %d packets, want request+response", len(recs))
	}
	outCP, _ := packet.WireECN(recs[0].Wire)
	inCP, _ := packet.WireECN(recs[1].Wire)
	if outCP != ecn.ECT0 || inCP != ecn.NotECT {
		t.Errorf("ECN out/in = %v/%v", outCP, inCP)
	}
}
