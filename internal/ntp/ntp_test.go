package ntp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		LI: 0, Version: 4, Mode: ModeClient,
		Stratum: 2, Poll: 6, Precision: -20,
		RootDelay: 0x1234, RootDisp: 0x5678, RefID: 0xC0A80101,
		RefTime: 0xDD00000011111111, OriginTS: 1, RecvTS: 2, XmitTS: 3,
	}
	wire := p.Marshal(nil)
	if len(wire) != PacketLen {
		t.Fatalf("wire length = %d", len(wire))
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := Parse(make([]byte, 47)); err == nil {
		t.Error("short packet accepted")
	}
}

func TestParseIgnoresTrailingBytes(t *testing.T) {
	p := NewRequest(42)
	wire := append(p.Marshal(nil), 0xAA, 0xBB)
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.XmitTS != 42 {
		t.Error("trailing bytes corrupted parse")
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(li, ver, mode, stratum uint8, poll, prec int8, rd, rdisp, rid uint32, rt, ot, rcv, xmt uint64) bool {
		p := Packet{
			LI: li & 0x3, Version: ver & 0x7, Mode: Mode(mode & 0x7),
			Stratum: stratum, Poll: poll, Precision: prec,
			RootDelay: rd, RootDisp: rdisp, RefID: rid,
			RefTime: rt, OriginTS: ot, RecvTS: rcv, XmitTS: xmt,
		}
		got, err := Parse(p.Marshal(nil))
		return err == nil && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTimestampConversion(t *testing.T) {
	ref := time.Date(2015, time.April, 25, 12, 30, 45, 500_000_000, time.UTC)
	ts := TimestampFromTime(ref)
	back := TimeFromTimestamp(ts)
	if diff := back.Sub(ref); diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("round trip error %v", diff)
	}
	// NTP era check: seconds field must exceed the 1900→2015 offset.
	if ts>>32 <= ntpEpochOffset {
		t.Error("timestamp not in NTP era")
	}
}

func TestTimestampMonotoneInSimTime(t *testing.T) {
	a := TimestampFromSim(0)
	b := TimestampFromSim(time.Second)
	c := TimestampFromSim(2 * time.Second)
	if !(a < b && b < c) {
		t.Errorf("timestamps not monotone: %d %d %d", a, b, c)
	}
	if b-a != 1<<32 {
		t.Errorf("one second != 2^32 fraction units: %d", b-a)
	}
}

func TestRespond(t *testing.T) {
	req := NewRequest(0xABCDEF)
	resp, err := Respond(req, 2, 0x7F000001, 100, 101)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeServer {
		t.Errorf("mode = %d", resp.Mode)
	}
	if resp.OriginTS != 0xABCDEF {
		t.Errorf("origin = %#x, must echo client xmit", resp.OriginTS)
	}
	if resp.RecvTS != 100 || resp.XmitTS != 101 {
		t.Errorf("timestamps = %d,%d", resp.RecvTS, resp.XmitTS)
	}
	if resp.Stratum != 2 {
		t.Errorf("stratum = %d", resp.Stratum)
	}
}

func TestRespondRejectsNonClient(t *testing.T) {
	req := NewRequest(1)
	req.Mode = ModeServer
	if _, err := Respond(req, 2, 0, 0, 0); err == nil {
		t.Error("server-mode request answered")
	}
}

func TestNewRequestShape(t *testing.T) {
	req := NewRequest(99)
	if req.Mode != ModeClient || req.Version != 4 {
		t.Errorf("request = %+v", req)
	}
	wire := req.Marshal(nil)
	// First byte: LI=0, VN=4, Mode=3 → 0x23.
	if wire[0] != 0x23 {
		t.Errorf("first byte = %#02x, want 0x23", wire[0])
	}
}
