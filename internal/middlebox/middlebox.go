// Package middlebox implements the on-path behaviours that the study set
// out to measure: firewalls and other boxes that treat ECN-marked UDP
// traffic as suspicious, and routers that bleach the ECN field of transit
// packets.
//
// Each behaviour is a netsim.Policy working directly on wire bytes, so a
// policy's effect (including the repaired IPv4 header checksum) is exactly
// what a downstream capture or ICMP quotation observes. The topology
// package decides where these boxes sit; this package only defines what
// they do.
package middlebox

import (
	"math/rand"

	"repro/internal/ecn"
	"repro/internal/iptable"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// ECNBleacher resets the ECN field of ECT-marked packets to not-ECT,
// modelling routers or policers that zero the former TOS byte. The study
// found 1143 hops doing this persistently and 125 doing it sometimes;
// Probability below 1 models the latter ("route flaps or rate-dependent
// remarking").
type ECNBleacher struct {
	// Probability of bleaching each ECT packet. 1 = always.
	Probability float64
	// RNG used for sometimes-bleachers; must be the simulation's RNG so
	// runs stay reproducible. May be nil when Probability >= 1.
	RNG *rand.Rand

	Bleached uint64 // packets whose mark was removed
}

// Name implements netsim.Policy.
func (b *ECNBleacher) Name() string { return "ecn-bleach" }

// Reset implements netsim.Policy.
func (b *ECNBleacher) Reset() { b.Bleached = 0 }

// Apply implements netsim.Policy.
func (b *ECNBleacher) Apply(_ *netsim.Router, wire []byte) netsim.Verdict {
	cp, err := packet.WireECN(wire)
	if err != nil || !cp.IsECT() {
		return netsim.Pass
	}
	if b.Probability < 1 {
		if b.RNG == nil || b.RNG.Float64() >= b.Probability {
			return netsim.Pass
		}
	}
	if packet.SetWireECN(wire, ecn.NotECT) == nil {
		b.Bleached++
	}
	return netsim.Pass
}

// ECTUDPDropper silently discards UDP packets that carry any ECT mark —
// the firewall behaviour responsible for the paper's persistent
// differential-reachability spikes (Figure 3a). TCP is unaffected, which
// produces the weak UDP/TCP correlation of Table 2.
type ECTUDPDropper struct {
	Dropped uint64
}

// Name implements netsim.Policy.
func (d *ECTUDPDropper) Name() string { return "drop-ect-udp" }

// Reset implements netsim.Policy.
func (d *ECTUDPDropper) Reset() { d.Dropped = 0 }

// Apply implements netsim.Policy.
func (d *ECTUDPDropper) Apply(_ *netsim.Router, wire []byte) netsim.Verdict {
	if len(wire) < packet.IPv4HeaderLen {
		return netsim.Pass
	}
	cp, err := packet.WireECN(wire)
	if err != nil || !cp.IsECT() {
		return netsim.Pass
	}
	if packet.Protocol(wire[9]) != packet.ProtoUDP {
		return netsim.Pass
	}
	d.Dropped++
	return netsim.Drop
}

// NotECTUDPDropper drops UDP packets that are NOT ECT-marked. The paper
// observed a tiny number of servers reachable with ECT(0) but not with
// not-ECT packets (Figure 3b) — consistent with a TOS-whitelisting
// middlebox — and left the cause open. The behaviour is modelled so the
// converse analysis has real signal to find.
type NotECTUDPDropper struct {
	Dropped uint64
}

// Name implements netsim.Policy.
func (d *NotECTUDPDropper) Name() string { return "drop-notect-udp" }

// Reset implements netsim.Policy.
func (d *NotECTUDPDropper) Reset() { d.Dropped = 0 }

// Apply implements netsim.Policy.
func (d *NotECTUDPDropper) Apply(_ *netsim.Router, wire []byte) netsim.Verdict {
	if len(wire) < packet.IPv4HeaderLen {
		return netsim.Pass
	}
	cp, err := packet.WireECN(wire)
	if err != nil || cp.IsECT() {
		return netsim.Pass
	}
	if packet.Protocol(wire[9]) != packet.ProtoUDP {
		return netsim.Pass
	}
	d.Dropped++
	return netsim.Drop
}

// ECTAnyDropper drops every ECT-marked IP packet regardless of transport:
// the most aggressive middlebox the literature describes. Not placed in
// the default topology but exercised by failure-injection tests and the
// ablation benchmarks.
type ECTAnyDropper struct {
	Dropped uint64
}

// Name implements netsim.Policy.
func (d *ECTAnyDropper) Name() string { return "drop-ect-any" }

// Reset implements netsim.Policy.
func (d *ECTAnyDropper) Reset() { d.Dropped = 0 }

// Apply implements netsim.Policy.
func (d *ECTAnyDropper) Apply(_ *netsim.Router, wire []byte) netsim.Verdict {
	cp, err := packet.WireECN(wire)
	if err != nil || !cp.IsECT() {
		return netsim.Pass
	}
	d.Dropped++
	return netsim.Drop
}

// ScopedBySource applies an inner policy only to packets whose source
// address falls inside one of the given prefixes. The paper observed two
// pool servers (run by Phoenix Public Library) whose reachability anomaly
// appeared "in the traces taken from EC2 only" — behaviour consistent
// with a middlebox that treats some source networks differently. This
// wrapper models exactly that.
type ScopedBySource struct {
	Prefixes []iptable.Prefix
	Inner    netsim.Policy
}

// Name implements netsim.Policy.
func (s *ScopedBySource) Name() string { return "src-scoped(" + s.Inner.Name() + ")" }

// Reset implements netsim.Policy.
func (s *ScopedBySource) Reset() { s.Inner.Reset() }

// Apply implements netsim.Policy.
func (s *ScopedBySource) Apply(r *netsim.Router, wire []byte) netsim.Verdict {
	if len(wire) < packet.IPv4HeaderLen {
		return netsim.Pass
	}
	var src packet.Addr
	copy(src[:], wire[12:16])
	for _, p := range s.Prefixes {
		if p.Contains(src) {
			return s.Inner.Apply(r, wire)
		}
	}
	return netsim.Pass
}

// ScopedByDest applies an inner policy only to packets destined to one
// of the given prefixes. Site firewalls filter traffic *toward* the
// hosts they protect; without this scoping a drop-not-ECT firewall would
// also eat the protected server's own (not-ECT) replies on their way
// out, making the server dead in both directions instead of exhibiting
// the paper's Figure 3b asymmetry.
type ScopedByDest struct {
	Prefixes []iptable.Prefix
	Inner    netsim.Policy
}

// Name implements netsim.Policy.
func (s *ScopedByDest) Name() string { return "dst-scoped(" + s.Inner.Name() + ")" }

// Reset implements netsim.Policy.
func (s *ScopedByDest) Reset() { s.Inner.Reset() }

// Apply implements netsim.Policy.
func (s *ScopedByDest) Apply(r *netsim.Router, wire []byte) netsim.Verdict {
	if len(wire) < packet.IPv4HeaderLen {
		return netsim.Pass
	}
	var dst packet.Addr
	copy(dst[:], wire[16:20])
	for _, p := range s.Prefixes {
		if p.Contains(dst) {
			return s.Inner.Apply(r, wire)
		}
	}
	return netsim.Pass
}

// CEMarker rewrites ECT packets to CE with the given probability: a
// congested AQM doing genuine ECN marking. The study saw no CE at all on
// its paths; the default topology therefore places none, but the marker
// exists for the "what would CE look like" extension benchmarks and for
// testing that the analysis classifies Marked transitions separately
// from Bleached ones.
type CEMarker struct {
	Probability float64
	RNG         *rand.Rand

	Marked uint64
}

// Name implements netsim.Policy.
func (m *CEMarker) Name() string { return "ce-mark" }

// Reset implements netsim.Policy.
func (m *CEMarker) Reset() { m.Marked = 0 }

// Apply implements netsim.Policy.
func (m *CEMarker) Apply(_ *netsim.Router, wire []byte) netsim.Verdict {
	cp, err := packet.WireECN(wire)
	if err != nil || !cp.IsECT() || cp == ecn.CE {
		return netsim.Pass
	}
	if m.Probability < 1 {
		if m.RNG == nil || m.RNG.Float64() >= m.Probability {
			return netsim.Pass
		}
	}
	if packet.SetWireECN(wire, ecn.CE) == nil {
		m.Marked++
	}
	return netsim.Pass
}
