package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/ecn"
	"repro/internal/packet"
)

// driveXTraffic runs one bottlenecked link under a deliberately hostile
// schedule for the lazy replay: paced foreground packets (mixed ECN
// codepoints, occasional bursts), random link loss, a competing
// PRNG-drawing timer chain (standing in for the rest of a campaign
// sharing the simulation's random stream), and RunUntil pauses. It
// returns a transcript of everything observable, and fails unless the
// quiet link conserves packets: sent = delivered + dropped.
func driveXTraffic(t *testing.T, mode XTrafficMode, discipline string, util float64) string {
	t.Helper()
	sim := NewSim(2015)
	sim.SetXTrafficMode(mode)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b", sim: sim}
	l := newLink(sim, a, b, time.Millisecond, 0.02)
	q, err := aqm.New(discipline, 40, sim.RNG())
	if err != nil {
		t.Fatal(err)
	}
	l.SetBottleneck(a, 125_000, util, q)

	// Competing consumer: draws from the shared PRNG on its own cadence.
	// If the lazy replay shifted any boundary draw past one of these, the
	// loss pattern — and with it the whole transcript — would diverge.
	noise := 0
	var tick func()
	tick = func() {
		sim.RNG().Float64()
		noise++
		if noise < 4000 {
			sim.After(3700*time.Microsecond, tick)
		}
	}
	sim.After(500*time.Microsecond, tick)

	cps := []ecn.Codepoint{ecn.ECT0, ecn.NotECT, ecn.ECT1, ecn.ECT0}
	var send func(i int)
	send = func(i int) {
		if i >= 600 {
			return
		}
		n := 1 + i%3 // occasional bursts queue several foreground packets
		for j := 0; j < n; j++ {
			l.Send(a, testWire(t, cps[(i+j)%len(cps)], 80+(i%5)*60))
		}
		sim.After(time.Duration(5+i%17)*time.Millisecond, func() { send(i + 1) })
	}
	send(0)

	// A RunUntil pause mid-campaign: the clock jumps past queued
	// boundaries, which both drives must handle identically.
	sim.RunUntil(250 * time.Millisecond)
	sim.Run()

	sum := fmt.Sprintf("delivered=%d noise=%d stats=%+v\n",
		len(b.received), noise, q.Stats())
	sent, dropped := l.Stats(a)
	if delivered := uint64(len(b.received)); sent != delivered+dropped {
		t.Errorf("%s at util %.2f: the quiet link sent %d packets, delivered %d and counts %d dropped",
			discipline, util, sent, delivered, dropped)
	}
	sum += fmt.Sprintf("link sent=%d dropped=%d finalDraw=%v\n", sent, dropped, sim.RNG().Float64())
	for i, wire := range b.received {
		cp, _ := packet.WireECN(wire)
		sum += fmt.Sprintf("%d %v %v %d\n", i, b.times[i], cp, len(wire))
	}
	return sum
}

// TestXTrafficDrivesEquivalent is the link-level differential gate: for
// every discipline — CoDel's head drops at dequeue included — the lazy
// catch-up replay must reproduce the event-per-boundary oracle's
// transcript byte for byte: delivery times, ECN codepoints, loss
// pattern, queue statistics, and the shared PRNG's final position.
//
// The ties case runs driveTies: four same-rate bottlenecks whose
// boundaries share nanoseconds, where the lazy drive must replay tied
// boundaries in the order their events would fire — by reserved seq —
// and interleave foreground arrivals on those nanoseconds exactly where
// the events drive does. The finish case runs driveFinishTies: events
// scheduled onto a foreground packet's serialization finish while it
// is on the wire.
func TestXTrafficDrivesEquivalent(t *testing.T) {
	for _, discipline := range []string{"droptail", "red", "codel"} {
		for _, util := range []float64{0, 0.6, 0.95, 1.3} {
			name := fmt.Sprintf("%s/util=%.2f", discipline, util)
			t.Run(name, func(t *testing.T) {
				events := driveXTraffic(t, XTrafficEvents, discipline, util)
				lazy := driveXTraffic(t, XTrafficLazy, discipline, util)
				if events != lazy {
					t.Errorf("transcripts diverge between drives:\nevents:\n%.600s\nlazy:\n%.600s", events, lazy)
				}
			})
		}
	}
	t.Run("ties", func(t *testing.T) {
		events := sameTranscript(t, driveTies)
		if strings.Contains(events, " CEMarked:0 ") {
			t.Fatalf("a queue never marked — the ties never reached RED's thresholds:\n%.2000s", events)
		}
	})
	t.Run("finish", func(t *testing.T) {
		events := sameTranscript(t, driveFinishTies)
		if !strings.Contains(events, "replayed start") {
			t.Fatalf("no tied finish belonged to a packet a replayed boundary started:\n%.2000s", events)
		}
	})
}

// sameTranscript runs drive under both drives, fails at the first line
// where their transcripts differ, and returns the events drive's.
func sameTranscript(t *testing.T, drive func(*testing.T, XTrafficMode) string) string {
	t.Helper()
	events, lazy := drive(t, XTrafficEvents), drive(t, XTrafficLazy)
	if events == lazy {
		return events
	}
	el, ll := strings.Split(events, "\n"), strings.Split(lazy, "\n")
	for i := range el {
		if i >= len(ll) || el[i] != ll[i] {
			t.Fatalf("transcripts diverge at line %d:\nevents: %s\nlazy:   %s", i, el[i], ll[min(i, len(ll)-1)])
		}
	}
	t.Fatalf("lazy transcript has %d extra lines", len(ll)-len(el))
	return ""
}

// TestLazyReplayCountsBoundaries: the lazy drive must not sneak phantom
// boundaries through the scheduler — every one is replayed, none are
// events, and the events oracle shows the mirror image.
func TestLazyReplayCountsBoundaries(t *testing.T) {
	run := func(mode XTrafficMode) *Sim {
		sim := NewSim(7)
		sim.SetXTrafficMode(mode)
		a, b := &sinkNode{label: "a"}, &sinkNode{label: "b"}
		l := newLink(sim, a, b, time.Millisecond, 0)
		l.SetBottleneck(a, 50_000, 1.1, aqm.NewRED(32, sim.RNG()))
		for i := 0; i < 10; i++ {
			l.Send(a, testWire(t, ecn.ECT0, 200))
		}
		sim.Run()
		return sim
	}
	events := run(XTrafficEvents)
	lazy := run(XTrafficLazy)
	if events.PhantomEvents() == 0 || events.ReplayedBoundaries() != 0 {
		t.Errorf("events drive: %d phantom events, %d replayed; want >0, 0",
			events.PhantomEvents(), events.ReplayedBoundaries())
	}
	if lazy.PhantomEvents() != 0 || lazy.ReplayedBoundaries() != events.PhantomEvents() {
		t.Errorf("lazy drive: %d phantom events, %d replayed; want 0, %d",
			lazy.PhantomEvents(), lazy.ReplayedBoundaries(), events.PhantomEvents())
	}
	if saved := events.Executed() - lazy.Executed(); saved != events.PhantomEvents() {
		t.Errorf("lazy drive saved %d events, want exactly the %d phantom boundaries",
			saved, events.PhantomEvents())
	}
}

// driveTies runs four same-rate RED bottlenecks on one simulator,
// started in phase by a 512-byte foreground packet each at t = 0.
// Bottlenecks 1–3 then carry background alone, so their phantom
// boundaries keep landing on the same nanoseconds through the burst,
// and only the seq each boundary reserved orders them — so the order
// their RED draws take from the shared PRNG is the order the replay
// picks among ties. Bottleneck 0 takes foreground arrivals on exact
// boundary nanoseconds: every 7 holds a probe reads the pending phantom
// boundary of bottleneck 0 or of the tied group and schedules a
// 300-byte arrival on link 0 either on it (its seq is already reserved,
// so the boundary goes first) or on the one after (not yet reserved, so
// the arrival goes first). A 300-byte packet's hold is shorter than a
// phantom's, so its finish can tie only with boundaries reserved before
// it began, which both drives order alike. An event scheduled during a
// foreground packet's serialization, landing on its finish, is
// driveFinishTies' case. It returns everything observable: deliveries,
// queue and link Stats, the shared PRNG's position and the seq counter.
func driveTies(t *testing.T, mode XTrafficMode) string {
	t.Helper()
	const bottlenecks, rate = 4, 1_250_000
	sim := NewSim(99)
	sim.SetXTrafficMode(mode)
	a := &sinkNode{label: "a"}
	links := make([]*Link, bottlenecks)
	sinks := make([]*sinkNode, bottlenecks)
	queues := make([]aqm.Queue, bottlenecks)
	for i := range links {
		sinks[i] = &sinkNode{label: fmt.Sprintf("b%d", i), sim: sim}
		links[i] = newLink(sim, a, sinks[i], time.Millisecond, 0)
		queues[i] = aqm.NewRED(40, sim.RNG())
		links[i].SetBottleneck(a, rate, 0.95, queues[i])
	}
	bgTx := txDuration(bgPacketSize, rate)

	for _, l := range links {
		l.Send(a, testWire(t, ecn.ECT0, bgPacketSize-28)) // 512 bytes on the wire
	}
	probes := 0
	var probe func()
	probe = func() {
		m := probes
		if bn := links[m%2].bneck[0]; bn.txPkt != nil && bn.txPkt.Phantom() {
			at := bn.busyUntil + time.Duration(m/2%2)*bgTx
			cp := []ecn.Codepoint{ecn.ECT0, ecn.NotECT}[m/4%2]
			sim.At(at, func() { links[0].Send(a, testWire(t, cp, 272)) }) // 300 bytes
		}
		if probes++; probes < 160 {
			sim.After(7*bgTx+13, probe)
		}
	}
	sim.After(2*bgTx+13, probe)
	ticks := 0
	var tick func()
	tick = func() {
		sim.RNG().Float64()
		if ticks++; ticks < 300 {
			sim.After(5*bgTx+7, tick)
		}
	}
	sim.After(5*bgTx+7, tick)
	sim.RunUntil(200 * bgTx)
	sim.Run()

	var sum strings.Builder
	fmt.Fprintf(&sum, "probes=%d ticks=%d seq=%d finalDraw=%v\n", probes, ticks, sim.seq, sim.RNG().Float64())
	for i, l := range links {
		sent, dropped := l.Stats(a)
		fmt.Fprintf(&sum, "link %d sent=%d dropped=%d stats=%+v\n", i, sent, dropped, queues[i].Stats())
		for j, wire := range sinks[i].received {
			cp, _ := packet.WireECN(wire)
			fmt.Fprintf(&sum, "  %d %v %v %d\n", j, sinks[i].times[j], cp, len(wire))
		}
	}
	return sum.String()
}

// driveFinishTies runs one RED bottleneck under background load and
// lossy foreground traffic while a probe, each time it finds a
// foreground packet on the wire, schedules an event at that packet's
// exact serialization finish. The event draws from the shared PRNG and
// sends another packet. The finish's own event drew its seq when the
// packet started, before the probe's, so the events drive runs the
// finish's boundary — its RED draws, the next packet's start — first.
// The lazy drive must order them alike whether the packet started in
// an event or in a replayed phantom boundary. It returns the probe
// events' draws, the deliveries, the queue and link Stats, the seq
// counter and the PRNG's final position.
func driveFinishTies(t *testing.T, mode XTrafficMode) string {
	t.Helper()
	sim := NewSim(5)
	sim.SetXTrafficMode(mode)
	a, b := &sinkNode{label: "a"}, &sinkNode{label: "b", sim: sim}
	l := newLink(sim, a, b, time.Millisecond, 0.05)
	q := aqm.NewRED(40, sim.RNG())
	l.SetBottleneck(a, 1_250_000, 0.95, q)
	bn := l.bneck[0]

	var sum strings.Builder
	// tied is the finish the last probe event was put on; phantomEnd the
	// boundary of the last phantom a probe saw on the wire.
	var tied, phantomEnd time.Duration
	probes := 0
	var probe func()
	probe = func() {
		p := bn.txPkt
		switch {
		case p == nil:
		case p.Phantom():
			phantomEnd = bn.busyUntil
		case bn.busyUntil != tied:
			tied = bn.busyUntil
			// A packet that started at a phantom's boundary started in
			// the lazy drive's replay; any other, in an event.
			how := "event start"
			if bn.busyUntil-txDuration(p.Size, bn.rate) == phantomEnd {
				how = "replayed start"
			}
			sim.At(tied, func() {
				fmt.Fprintf(&sum, "tie %v %s draw=%v\n", sim.Now(), how, sim.RNG().Float64())
				l.Send(a, testWire(t, ecn.ECT0, 200))
			})
		}
		if probes++; probes < 3000 {
			sim.After(97*time.Microsecond, probe)
		}
	}
	sim.After(0, probe)
	var send func(i int)
	send = func(i int) {
		if i < 400 {
			l.Send(a, testWire(t, []ecn.Codepoint{ecn.ECT0, ecn.NotECT}[i%2], 100+i%7*40))
			sim.After(time.Duration(300+i%11*90)*time.Microsecond, func() { send(i + 1) })
		}
	}
	send(0)
	sim.Run()

	sent, dropped := l.Stats(a)
	fmt.Fprintf(&sum, "probes=%d seq=%d sent=%d dropped=%d stats=%+v finalDraw=%v\n",
		probes, sim.seq, sent, dropped, q.Stats(), sim.RNG().Float64())
	for i, wire := range b.received {
		cp, _ := packet.WireECN(wire)
		fmt.Fprintf(&sum, "%d %v %v %d\n", i, b.times[i], cp, len(wire))
	}
	return sum.String()
}
