package analysis

import (
	"strings"
	"testing"

	"repro/internal/asn"

	"repro/internal/ecn"
	"repro/internal/iptable"
	"repro/internal/packet"
	"repro/internal/traceroute"
	"repro/internal/vantage"
)

// synthPath builds observations for one vantage→target path where hops
// at index >= stripAt (0-based) return a bleached quotation. Hop
// addresses come from hopAddrs.
func synthPath(vantage uint8, target packet.Addr, hopAddrs []packet.Addr, stripAt int) []traceroute.PathObservation {
	var out []traceroute.PathObservation
	for i, hop := range hopAddrs {
		tr := ecn.Preserved
		quoted := ecn.ECT0
		if stripAt >= 0 && i >= stripAt {
			tr = ecn.Bleached
			quoted = ecn.NotECT
		}
		out = append(out, traceroute.PathObservation{
			Vantage:    vantage,
			Target:     target,
			TTL:        uint8(i + 1),
			Responded:  true,
			Hop:        hop,
			SentECN:    ecn.ECT0,
			QuotedECN:  quoted,
			Transition: tr,
		})
	}
	return out
}

func synthASNTable() *asn.Table {
	t := asn.NewTable()
	t.Add(iptable.MustParsePrefix("16.0.0.0/16"), asn.Info{ASN: 100, Name: "a", Tier: 2})
	t.Add(iptable.MustParsePrefix("16.1.0.0/16"), asn.Info{ASN: 101, Name: "b", Tier: 3})
	t.Add(iptable.MustParsePrefix("16.2.0.0/16"), asn.Info{ASN: 102, Name: "c", Tier: 3})
	return t
}

func hop(as, i int) packet.Addr { return packet.AddrFrom4(16, byte(as), 1, byte(i)) }

func TestComputeFigure4CleanAndStripped(t *testing.T) {
	table := synthASNTable()
	target1 := packet.AddrFrom4(16, 1, 2, 1)
	target2 := packet.AddrFrom4(16, 2, 2, 1)

	var obs []traceroute.PathObservation
	// Clean path: 4 hops in AS 100 then AS 101.
	obs = append(obs, synthPath(0, target1,
		[]packet.Addr{hop(0, 1), hop(0, 2), hop(1, 1), hop(1, 2)}, -1)...)
	// Stripped path: strip begins at hop 3 (first hop of AS 102 — an AS
	// boundary strip location).
	obs = append(obs, synthPath(0, target2,
		[]packet.Addr{hop(0, 1), hop(0, 2), hop(2, 1), hop(2, 2)}, 2)...)

	f := ComputeFigure4([][]traceroute.PathObservation{obs}, table)
	if f.TotalObservations != 8 || f.RespondedObservations != 8 {
		t.Errorf("observations = %d/%d", f.TotalObservations, f.RespondedObservations)
	}
	if f.PreservedObservations != 6 || f.ModifiedObservations != 2 {
		t.Errorf("preserved/modified = %d/%d, want 6/2", f.PreservedObservations, f.ModifiedObservations)
	}
	if f.StripLocationRouters != 1 {
		t.Fatalf("strip locations = %d, want 1 (first red hop only)", f.StripLocationRouters)
	}
	if f.AlwaysStripRouters != 1 || f.SometimesStrip != 0 {
		t.Errorf("always/sometimes = %d/%d", f.AlwaysStripRouters, f.SometimesStrip)
	}
	if f.BoundaryStrips != 1 || f.DeterminableStrips != 1 {
		t.Errorf("boundary = %d/%d; strip at hop(2,1) follows hop(0,2): AS 100→102", f.BoundaryStrips, f.DeterminableStrips)
	}
	if f.ASesSeen != 3 {
		t.Errorf("ASes = %d", f.ASesSeen)
	}
	if f.CEObservations != 0 {
		t.Errorf("CE = %d", f.CEObservations)
	}
}

func TestComputeFigure4SometimesStrip(t *testing.T) {
	table := synthASNTable()
	target := packet.AddrFrom4(16, 1, 2, 1)
	hops := []packet.Addr{hop(0, 1), hop(1, 1), hop(1, 2)}

	// Same path traced twice — from two vantages, so two sweep shards'
	// segments: strips once at hop 2, clean the other time.
	f := ComputeFigure4([][]traceroute.PathObservation{
		synthPath(0, target, hops, 1),
		synthPath(1, target, hops, -1),
	}, table)
	if f.StripLocationRouters != 1 {
		t.Fatalf("strip locations = %d", f.StripLocationRouters)
	}
	if f.SometimesStrip != 1 || f.AlwaysStripRouters != 0 {
		t.Errorf("always/sometimes = %d/%d, want 0/1", f.AlwaysStripRouters, f.SometimesStrip)
	}
}

func TestComputeFigure4InteriorStripNotBoundary(t *testing.T) {
	table := synthASNTable()
	target := packet.AddrFrom4(16, 1, 2, 1)
	// Strip at the SECOND hop of AS 101: previous hop same AS.
	obs := synthPath(0, target,
		[]packet.Addr{hop(0, 1), hop(1, 1), hop(1, 2)}, 2)

	f := ComputeFigure4([][]traceroute.PathObservation{obs}, table)
	if f.BoundaryStrips != 0 || f.DeterminableStrips != 1 {
		t.Errorf("boundary = %d/%d, want 0/1", f.BoundaryStrips, f.DeterminableStrips)
	}
}

func TestComputeFigure4CEClassifiedSeparately(t *testing.T) {
	table := synthASNTable()
	target := packet.AddrFrom4(16, 1, 2, 1)
	obs := []traceroute.PathObservation{{
		Target: target, TTL: 1, Responded: true, Hop: hop(0, 1),
		SentECN: ecn.ECT0, QuotedECN: ecn.CE, Transition: ecn.Marked,
	}}
	f := ComputeFigure4([][]traceroute.PathObservation{obs}, table)
	if f.CEObservations != 1 {
		t.Errorf("CE observations = %d", f.CEObservations)
	}
	if f.StripLocationRouters != 0 {
		t.Error("CE mark misclassified as strip")
	}
}

func TestComputeFigure4SilentHops(t *testing.T) {
	table := synthASNTable()
	target := packet.AddrFrom4(16, 1, 2, 1)
	obs := []traceroute.PathObservation{
		{Target: target, TTL: 1, Responded: true, Hop: hop(0, 1), SentECN: ecn.ECT0, QuotedECN: ecn.ECT0, Transition: ecn.Preserved},
		{Target: target, TTL: 2, SentECN: ecn.ECT0}, // silent
	}
	f := ComputeFigure4([][]traceroute.PathObservation{obs}, table)
	if f.TotalObservations != 2 || f.RespondedObservations != 1 {
		t.Errorf("observations = %d/%d", f.TotalObservations, f.RespondedObservations)
	}
}

func TestRenderFigure4(t *testing.T) {
	table := synthASNTable()
	target := packet.AddrFrom4(16, 1, 2, 1)
	obs := synthPath(0, target, []packet.Addr{hop(0, 1), hop(1, 1)}, 1)
	f := ComputeFigure4([][]traceroute.PathObservation{obs}, table)
	out := RenderFigure4(f)
	if !strings.Contains(out, "GR") {
		t.Errorf("sample path missing G/R run:\n%s", out)
	}
	if !strings.Contains(out, "strip locations") {
		t.Error("summary missing")
	}
}

// TestFigure4SamplePathsInNameOrder: rows name their vantage by Table 2
// index, but the sample paths come out sorted by vantage name, as they
// did when rows carried the name — so Table 2's first vantage, "Perkins
// home", renders after "EC2 California", its fifth.
func TestFigure4SamplePathsInNameOrder(t *testing.T) {
	table := synthASNTable()
	target := packet.AddrFrom4(16, 1, 2, 1)
	hops := []packet.Addr{hop(0, 1), hop(1, 1)}
	f := ComputeFigure4([][]traceroute.PathObservation{
		synthPath(0, target, hops, -1),
		synthPath(4, target, hops, -1),
	}, table)
	if len(f.SamplePaths) != 2 {
		t.Fatalf("sample paths = %q", f.SamplePaths)
	}
	for i, name := range []string{vantage.Name(4), vantage.Name(0)} {
		if !strings.HasPrefix(f.SamplePaths[i], name+" ") {
			t.Errorf("sample path %d = %q, want %s's", i, f.SamplePaths[i], name)
		}
	}
}
