package dnspool

import (
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// DiscoverConfig controls a pool-enumeration run, mirroring the paper's
// discovery script: "a DNS query for pool.ntp.org and each of its
// country- and region-specific sub-domains in turn, with a one second gap
// between each query... run at approximately ten minute intervals".
type DiscoverConfig struct {
	// Resolver is the address of the pool DNS service.
	Resolver packet.Addr
	// Zones are the sub-zone labels to poll in addition to the apex
	// (e.g. "uk", "europe", "us").
	Zones []string
	// Rounds is how many polling passes to make.
	Rounds int
}

// A run's pacing: the script's one-second query gap and ten-minute
// round interval, compressed to 100 ms and a minute. The directory
// answers by rotation, not by clock, so the compression moves no
// answer, only the virtual time a discovery ends at.
const (
	queryGap      = 100 * time.Millisecond
	roundInterval = time.Minute
	// queryTimeout bounds each query; timed-out queries are skipped, not
	// retried — the next round repeats the zone anyway.
	queryTimeout = 2 * time.Second
)

// DiscoverResult is the enumerated server set.
type DiscoverResult struct {
	// Servers is the deduplicated, address-sorted membership.
	Servers []packet.Addr
	// QueriesSent and ResponsesReceived describe the run.
	QueriesSent       int
	ResponsesReceived int
}

// Discover runs the polling loop from a simulated host against the pool
// directory, calling done with the deduplicated server list. Drive the
// simulation to completion for the result.
func Discover(h *netsim.Host, cfg DiscoverConfig, done func(DiscoverResult)) {
	sim := h.Sim()

	// Query plan: apex first, then each sub-zone, repeated every round.
	names := append([]string{BaseZone}, make([]string, 0, len(cfg.Zones))...)
	for _, z := range cfg.Zones {
		names = append(names, z+"."+BaseZone)
	}

	seen := make(map[packet.Addr]bool)
	var res DiscoverResult
	var queryID uint16

	var step func(round, zoneIdx int)
	runQuery := func(name string, next func()) {
		queryID++
		id := queryID
		var port uint16
		var timer netsim.Timer
		finished := false
		finish := func() {
			if finished {
				return
			}
			finished = true
			timer.Stop()
			h.UnbindUDP(port)
			next()
		}
		port, err := h.BindUDP(0, func(host *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
			if finished || ip.Src != cfg.Resolver {
				return
			}
			msg, perr := Parse(payload)
			if perr != nil || !msg.IsResponse() || msg.ID != id {
				return
			}
			res.ResponsesReceived++
			for _, rr := range msg.Answers {
				if rr.Type == TypeA && !seen[rr.Addr] {
					seen[rr.Addr] = true
				}
			}
			finish()
		})
		if err != nil {
			next()
			return
		}
		q := NewQuery(id, name)
		wire, err := q.Marshal()
		if err != nil {
			finish()
			return
		}
		res.QueriesSent++
		// A failed send is recovered by the query timeout path.
		_ = h.SendUDP(cfg.Resolver, port, DNSPort, 64, 0 /* not-ECT */, wire)
		timer = sim.After(queryTimeout, finish)
	}

	step = func(round, zoneIdx int) {
		if round == cfg.Rounds {
			res.Servers = make([]packet.Addr, 0, len(seen))
			for a := range seen {
				res.Servers = append(res.Servers, a)
			}
			sort.Slice(res.Servers, func(i, j int) bool {
				return res.Servers[i].Less(res.Servers[j])
			})
			done(res)
			return
		}
		if zoneIdx == len(names) {
			sim.After(roundInterval, func() { step(round+1, 0) })
			return
		}
		runQuery(names[zoneIdx], func() {
			sim.After(queryGap, func() { step(round, zoneIdx+1) })
		})
	}
	step(0, 0)
}
