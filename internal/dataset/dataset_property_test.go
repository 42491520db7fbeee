package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

// Generate lets testing/quick build random observations.
func (Observation) Generate(r *rand.Rand, size int) reflect.Value {
	o := Observation{
		Server:          packet.AddrFromUint32(r.Uint32()),
		UDPReachable:    r.Intn(2) == 0,
		UDPECTReachable: r.Intn(2) == 0,
		UDPAttempts:     uint8(r.Intn(7)),
		UDPECTAttempts:  uint8(r.Intn(7)),
		TCPReachable:    r.Intn(2) == 0,
		TCPECNReachable: r.Intn(2) == 0,
		TCPECN:          r.Intn(2) == 0,
		HTTPStatus:      []uint16{0, 200, 302, 404}[r.Intn(4)],
	}
	return reflect.ValueOf(o)
}

// Property: datasets survive the JSONL round trip exactly.
func TestDatasetRoundTripProperty(t *testing.T) {
	f := func(vantage string, batch uint8, obs []Observation) bool {
		d := &Dataset{Traces: []Trace{{
			Vantage:      vantage,
			Batch:        int(batch%2) + 1,
			Observations: obs,
		}}}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Traces) != 1 {
			return false
		}
		tr := got.Traces[0]
		if tr.Vantage != vantage || len(tr.Observations) != len(obs) {
			return false
		}
		for i := range obs {
			if tr.Observations[i] != obs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CountReachable never exceeds the observation count and each
// counter is consistent with a manual tally.
func TestCountReachableProperty(t *testing.T) {
	f := func(obs []Observation) bool {
		tr := Trace{Observations: obs}
		udp, udpECT, tcp, tcpECN := tr.CountReachable()
		n := len(obs)
		if udp > n || udpECT > n || tcp > n || tcpECN > n {
			return false
		}
		wantUDP := 0
		for _, o := range obs {
			if o.UDPReachable {
				wantUDP++
			}
		}
		return udp == wantUDP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
