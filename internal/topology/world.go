package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/aqm"
	"repro/internal/asn"
	"repro/internal/dnspool"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/ntp"
	"repro/internal/packet"
	"repro/internal/tcpsim"
	"repro/internal/traceroute"
)

// Server is one NTP pool member and its ground truth.
type Server struct {
	Host    *netsim.Host
	Addr    packet.Addr
	Region  geo.Region
	Country string

	NTP *ntp.Server
	// Web/WebECN: runs a web server / negotiates ECN over TCP.
	Web    bool
	WebECN bool
	// BrokenECE: negotiates ECN but never echoes congestion (the
	// Kühlewind "negotiate but unusable" population).
	BrokenECE bool
	Stack     *tcpsim.Stack // nil unless Web

	// Middlebox ground truth.
	ECTUDPFirewalled bool // site firewall drops ECT-marked UDP
	NotECTFirewalled bool // site firewall drops not-ECT UDP
	ScopedNotECT     bool // drops not-ECT UDP from cloud sources only
	ScopedECT        bool // drops ECT UDP from some cloud sources only
	Flaky            bool // congestion-prone access link
	BleachedPath     bool // sits behind a bleaching stub router
}

// VantageKind distinguishes the access-network loss models.
type VantageKind uint8

// Vantage kinds.
const (
	KindHome VantageKind = iota
	KindCampusWired
	KindCampusWireless
	KindCloud
)

// Vantage is one of the study's 13 measurement locations.
type Vantage struct {
	Name   string
	Kind   VantageKind
	Region geo.Region
	Host   *netsim.Host
	Stack  *tcpsim.Stack
	// Mux is the host's traceroute demultiplexer — its ICMP handler from
	// the moment the world is built, so part of the host's baseline. It
	// lives as long as the world, and every vantage's Mux shares the
	// world's one traceroute.Pool: the sessions recycled there stay warm
	// from one vantage, sweep and shard to the next.
	Mux *traceroute.Mux

	// BaseLoss and LossJitter parameterise the per-trace access-link
	// loss draw: loss = BaseLoss + U(0, LossJitter).
	BaseLoss   float64
	LossJitter float64

	// UserData belongs to the measurement application probing from this
	// vantage: package core keeps its recycled four-measurement shells
	// here. Capacity, not state: World.Reset leaves it alone.
	UserData any
}

// World is a generated Internet plus its ground truth and lookups.
type World struct {
	Cfg Config
	Sim *netsim.Sim
	Net *netsim.Network

	Geo *geo.DB
	ASN *asn.Table

	Servers []*Server
	// Vantages are the 13 locations in Table 2 order: Vantages[i].Name
	// is vantage.Name(i).
	Vantages []*Vantage

	// Pool DNS.
	Directory *dnspool.Directory
	DNSAddr   packet.Addr
	// CountryZones lists the sub-zone labels in use (for discovery).
	CountryZones []string

	// BleachRouters records where ECN bleaching happens (ground truth
	// for validating the Figure 4 inference). Keyed by router ID.
	BleachRouters map[int]string // id → "border" | "interior" | "sometimes-*"

	// Bottlenecks lists the congestion substrate's shaped link
	// directions and their AQM queues — the ground truth the CE-mark
	// report compares receiver-side observations against. Empty in an
	// uncongested world.
	Bottlenecks []*Bottleneck

	// UserData belongs to the measurement application driving this world:
	// package core parks its traceroute-sweep shell (iteration state and
	// the row staging buffer) here between sweeps. Capacity, not state:
	// Reset leaves it alone.
	UserData any
}

// Bottleneck is one bandwidth-limited link direction of the congestion
// substrate and the AQM queue managing it.
type Bottleneck struct {
	// Vantage names the vantage whose access link this is; empty for
	// transit bottlenecks.
	Vantage string
	// Label describes the placement for reports, e.g.
	// "EC2 Tokyo/down" or "tr-7/fwd".
	Label string
	// Link is the shaped link; Queue its AQM discipline instance.
	Link  *netsim.Link
	Queue aqm.Queue
	// Utilization is the configured background load fraction.
	Utilization float64
}

// ServerAddrs returns the pool membership in creation order.
func (w *World) ServerAddrs() []packet.Addr {
	out := make([]packet.Addr, len(w.Servers))
	for i, s := range w.Servers {
		out[i] = s.Addr
	}
	return out
}

// ServerByAddr resolves ground truth for an address through the
// network's address index: the servers are the network's first hosts,
// in creation order.
func (w *World) ServerByAddr(a packet.Addr) (*Server, bool) {
	i, ok := w.Net.HostIndex(a)
	if !ok || i >= len(w.Servers) {
		return nil, false
	}
	return w.Servers[i], true
}

// VantageByName finds a vantage point by its paper name.
func (w *World) VantageByName(name string) (*Vantage, bool) {
	for _, v := range w.Vantages {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// Batch identifies which measurement batch a trace belongs to; the pool
// churned between them.
type Batch int

// The two collection batches (April/May and July/August 2015).
const (
	Batch1 Batch = 1
	Batch2 Batch = 2
)

// ApplyTraceConditions rolls the per-trace state: pool churn (which
// servers are online), flaky-server congestion, and the vantage's
// access-link loss draw. Call before running each trace; rng must be the
// simulation's PRNG for reproducibility.
func (w *World) ApplyTraceConditions(v *Vantage, batch Batch, rng *rand.Rand) {
	onlineProb := w.Cfg.OnlineProbBatch1
	if batch == Batch2 {
		onlineProb = w.Cfg.OnlineProbBatch2
	}
	for _, s := range w.Servers {
		online := rng.Float64() < onlineProb
		s.Host.SetOnline(online)
		if s.Flaky {
			loss := 0.0
			if online && rng.Float64() < w.Cfg.FlakyCongestionProb {
				loss = w.Cfg.FlakyCongestionLoss
			}
			s.Host.Uplink().SetLossBoth(loss)
		}
	}
	for _, vp := range w.Vantages {
		loss := vp.BaseLoss
		if vp == v {
			loss = vp.BaseLoss + float64(rng.Float64()*vp.LossJitter)
		}
		vp.Host.Uplink().SetLossBoth(loss)
	}
}

// ResetTransientState returns every piece of per-trace mutable world
// state to its canonical baseline: all hosts online, access-link loss
// cleared, AQM queue control state reset. The sharded campaign engine
// calls it (before ApplyTraceConditions) at each trace boundary and
// before the traceroute sweep, so a measurement phase's behaviour is a
// function of its own seed and traffic alone — never of which phases
// happened to run earlier in the same simulator. That history-freedom is
// what makes the merged dataset byte-identical however the campaign is
// sliced into shards.
func (w *World) ResetTransientState() {
	for _, s := range w.Servers {
		s.Host.SetOnline(true)
		s.Host.Uplink().SetLossBoth(0)
	}
	for _, v := range w.Vantages {
		v.Host.Uplink().SetLossBoth(0)
	}
	for _, bn := range w.Bottlenecks {
		bn.Queue.ResetTransient()
	}
}

// Reset returns an instantiated world to exactly the state
// Blueprint.Instantiate produced, so the next shard can run on it
// instead of on a rebuilt one (DESIGN.md §9.4). It restores the mutable
// overlay and nothing else: the simulator (clock, counters, PRNG), every
// host's socket surface, router and middlebox counters, link loss and
// counters, bottleneck transmitters and their AQM queues, TCP stacks,
// the vantages' traceroute sessions, NTP and DNS service counters and
// the DNS rotation cursors. What it keeps is capacity — the event slab,
// connection, probe and traceroute-session free lists, slice backing
// arrays — which is why a reset allocates nothing
// where an instantiation allocates the whole overlay.
//
// The world should be quiescent (its simulator drained). Reset copes
// with leftovers — pending events are discarded, half-open connections
// dropped — but a world whose run failed is better discarded: the
// campaign engine never resets one.
func (w *World) Reset() {
	w.Sim.Reset()
	w.Net.Reset()
	for _, s := range w.Servers {
		s.NTP.Served = 0
		if s.Stack != nil {
			s.Stack.Reset()
		}
	}
	for _, v := range w.Vantages {
		v.Stack.Reset()
		v.Mux.Reset()
	}
	w.Directory.Reset()
}

func (w *World) String() string {
	return fmt.Sprintf("topology.World{%d servers, %d vantages, %d routers, %d ASes}",
		len(w.Servers), len(w.Vantages), len(w.Net.Routers()), w.ASN.ASCount())
}
