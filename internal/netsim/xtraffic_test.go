package netsim

import (
	"fmt"
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
// returns a transcript of everything observable.
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

	sum := fmt.Sprintf("delivered=%d noise=%d pending=%d stats=%+v\n",
		len(b.received), noise, sim.live, q.Stats())
	sent, dropped := l.Stats(a)
	sum += fmt.Sprintf("link sent=%d dropped=%d finalDraw=%v\n", sent, dropped, sim.RNG().Float64())
	for i, wire := range b.received {
		cp, _ := packet.WireECN(wire)
		sum += fmt.Sprintf("%d %v %v %d\n", i, b.times[i], cp, len(wire))
	}
	return sum
}

// TestXTrafficDrivesEquivalent is the link-level differential gate: for
// every discipline — including CoDel, whose head drops put the lazy
// drive into its evented hybrid whenever foreground is queued — the
// lazy catch-up replay must reproduce the event-per-boundary oracle's
// transcript byte for byte: delivery times, ECN codepoints, loss
// pattern, queue statistics, and the shared PRNG's final position.
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
}

// TestLazyReplayCountsBoundaries: the lazy drive must not sneak phantom
// boundaries through the scheduler — every one is replayed, none are
// events, and the evented oracle shows the mirror image.
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
