package dataset

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/packet"
)

func sampleDataset() *Dataset {
	return &Dataset{Traces: []Trace{
		{
			Vantage: "Perkins home", Batch: 1, Index: 0,
			Observations: []Observation{
				{Server: packet.MustParseAddr("16.9.2.0"), UDPReachable: true, UDPECTReachable: true, UDPAttempts: 1, TCPReachable: true, TCPECN: true, HTTPStatus: 302},
				{Server: packet.MustParseAddr("16.9.2.1"), UDPReachable: true, UDPECTReachable: false, UDPAttempts: 2},
			},
		},
		{
			Vantage: "EC2 Tokyo", Batch: 2, Index: 1,
			Observations: []Observation{
				{Server: packet.MustParseAddr("16.9.2.0"), UDPReachable: false},
			},
		},
	}}
}

// TestObservationWidth pins the row's size. A paper-scale campaign holds
// ≈ 195 k of them, each copied from probe to trace to merge, so one
// added int costs 195 k × 8 B per copy: widen a field on purpose, and
// re-pin it here.
func TestObservationWidth(t *testing.T) {
	if got := unsafe.Sizeof(Observation{}); got != 14 {
		t.Errorf("dataset.Observation is %d bytes, want 14", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 2 {
		t.Fatalf("traces = %d", len(got.Traces))
	}
	o := got.Traces[0].Observations[0]
	if o.Server != packet.MustParseAddr("16.9.2.0") || !o.UDPReachable || !o.TCPECN || o.HTTPStatus != 302 {
		t.Errorf("observation = %+v", o)
	}
	if got.Traces[1].Vantage != "EC2 Tokyo" || got.Traces[1].Batch != 2 {
		t.Errorf("trace meta = %+v", got.Traces[1])
	}
}

func TestAddressesSerializeAsDottedQuad(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"16.9.2.0"`) {
		t.Errorf("addresses not dotted-quad: %s", buf.String()[:120])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadEmpty(t *testing.T) {
	d, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Traces) != 0 {
		t.Error("phantom traces")
	}
}

func TestCountReachable(t *testing.T) {
	d := sampleDataset()
	udp, udpECT, tcp, tcpECN := d.Traces[0].CountReachable()
	if udp != 2 || udpECT != 1 || tcp != 1 || tcpECN != 1 {
		t.Errorf("counts = %d,%d,%d,%d", udp, udpECT, tcp, tcpECN)
	}
}

func TestVantagesAndFilter(t *testing.T) {
	d := sampleDataset()
	vs := d.Vantages()
	if len(vs) != 2 || vs[0] != "Perkins home" {
		t.Errorf("vantages = %v", vs)
	}
	if len(d.TracesFrom("EC2 Tokyo")) != 1 {
		t.Error("filter broken")
	}
	if len(d.TracesFrom("nowhere")) != 0 {
		t.Error("phantom traces from unknown vantage")
	}
}

func TestServersUnion(t *testing.T) {
	d := sampleDataset()
	servers := d.Servers()
	if len(servers) != 2 {
		t.Errorf("servers = %v", servers)
	}
}
