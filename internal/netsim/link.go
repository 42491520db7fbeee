package netsim

import (
	"time"

	"repro/internal/aqm"
	"repro/internal/packet"
)

// Node is anything attached to the network that can receive packets:
// hosts and routers.
type Node interface {
	// Receive handles a delivered wire-format IPv4 datagram. The buffer
	// reference is owned by the receiver: forward it (transferring
	// ownership again) or Release it when done.
	Receive(b *packet.Buf, from *Link)
	// Label names the node for reports and traces.
	Label() string
}

// Link is a bidirectional point-to-point link with independent delay and
// loss in each direction. Loss is decided at transmission time from the
// simulation PRNG, which keeps runs reproducible.
//
// A direction is by default an infinite-rate pipe: packets depart
// immediately and arrive after the propagation delay — the exact
// behaviour of the pre-congestion substrate, preserved byte-for-byte so
// uncongested campaigns regenerate identical datasets. SetBottleneck
// gives a direction a finite serialization rate and an AQM queue;
// packets then queue when offered load exceeds capacity, and the queue's
// discipline may CE-mark or drop them.
type Link struct {
	sim  *Sim
	a, b Node
	// Directional properties, indexed by direction (a→b = 0, b→a = 1).
	delay [2]time.Duration
	// lane is each direction's delivery lane on sim, fixed by delay.
	lane [2]uint8
	loss [2]float64
	// baseLoss is the loss the link was created with; reset restores it.
	baseLoss float64
	bneck    [2]*bottleneck

	// Counters for analysis and capacity tests: packets sent, and those
	// of them the loss draw discarded.
	sent [2]uint64
	lost [2]uint64
}

// newLink wires two nodes together. Use Network helpers instead of
// constructing links directly. A negative delay is treated as zero: a
// delivery lane stays sorted only if nothing arrives before now.
func newLink(sim *Sim, a, b Node, delay time.Duration, loss float64) *Link {
	delay = max(delay, 0)
	ln := sim.laneFor(delay)
	return &Link{
		sim:      sim,
		a:        a,
		b:        b,
		delay:    [2]time.Duration{delay, delay},
		lane:     [2]uint8{ln, ln},
		loss:     [2]float64{loss, loss},
		baseLoss: loss,
	}
}

// reset returns the link to its just-built state: creation-time loss,
// counters zeroed, each bottleneck's transmitter idle and its queue
// empty. Delay and the bottleneck placement are structure and stay.
func (l *Link) reset() {
	l.loss = [2]float64{l.baseLoss, l.baseLoss}
	l.sent = [2]uint64{}
	l.lost = [2]uint64{}
	for _, bn := range l.bneck {
		if bn != nil {
			bn.reset()
		}
	}
}

// Peer returns the node on the other end from n.
func (l *Link) Peer(n Node) Node {
	if n == l.a {
		return l.b
	}
	return l.a
}

// SetLossBoth sets the loss probability in both directions. The
// campaign uses it to model per-trace variation (wireless jitter, the
// congested home access link).
func (l *Link) SetLossBoth(p float64) {
	l.loss[0], l.loss[1] = p, p
}

// Loss returns the loss probability for packets transmitted by from.
func (l *Link) Loss(from Node) float64 { return l.loss[l.dir(from)] }

// Stats returns packets sent and dropped in the from→peer direction.
// Dropped covers both random loss draws and AQM queue drops — at enqueue
// or, like CoDel's head drop, at dequeue; the queue's own Stats break
// the latter down. Once the link is quiet, sent = delivered + dropped.
func (l *Link) Stats(from Node) (sent, dropped uint64) {
	d := l.dir(from)
	sent, dropped = l.sent[d], l.lost[d]
	if bn := l.bneck[d]; bn != nil {
		// Every packet the loss draw spared was offered to the queue,
		// and WireEnqueued nets out those its discipline discarded after
		// admitting them: the rest were lost or dropped.
		dropped = sent - bn.q.Stats().WireEnqueued
	}
	return sent, dropped
}

func (l *Link) dir(from Node) int {
	if from == l.a {
		return 0
	}
	if from == l.b {
		return 1
	}
	panic("netsim: node not on link " + from.Label())
}

// peerOf returns the receiving node for direction d.
func (l *Link) peerOf(d int) Node {
	if d == 1 {
		return l.a
	}
	return l.b
}

// Send transmits a wire buffer from the given endpoint. The packet is
// delivered to the peer after the link delay unless the loss draw
// discards it, or — on a bottlenecked direction — the AQM queue drops
// it. Send takes ownership of the caller's buffer reference.
func (l *Link) Send(from Node, b *packet.Buf) { l.send(l.dir(from), b) }

// send is Send with the direction already resolved.
func (l *Link) send(d int, b *packet.Buf) {
	l.sent[d]++
	if l.loss[d] > 0 && l.sim.rng.Float64() < l.loss[d] {
		l.lost[d]++
		b.Release()
		return
	}
	bn := l.bneck[d]
	if bn == nil {
		// Infinite-rate path: identical to the pre-congestion substrate.
		l.sim.deliverAfter(l, d, b)
		return
	}
	now := l.sim.Now()
	// The background since the last boundary joins the queue ahead of
	// the packet (its discipline decides their fate).
	bn.q.EnqueuePhantoms(now, bgPacketSize, bn.arrivals(now))
	// Background stays active for a grace period past the last foreground
	// packet: cross traffic contends with the measurement while it runs,
	// then quenches so the simulation can drain.
	bn.fgUntil = now + bgGrace
	// The queue owns the packet from here, and frees it if its
	// discipline drops it (Stats counts that). Serve the queue either
	// way: the injected background must drain through the transmitter
	// regardless.
	bn.q.Enqueue(now, aqm.NewPacket(b))
	l.serveQueue(bn, now)
}

// --- bottleneck ----------------------------------------------------------

// Background cross-traffic model: phantom packets of bgPacketSize bytes
// arrive in periodic on/off bursts at bgPeakFactor × the link rate, with
// the on fraction chosen so the mean offered load equals the configured
// utilization. Bursty (rather than fluid-smooth) arrivals are what make
// the queue's operating point — and therefore the CE-mark ratio — vary
// smoothly with utilization instead of stepping at 1.0.
const (
	bgPacketSize = 512
	bgPeriod     = 500 * time.Millisecond
	bgPeakFactor = 1.5
	bgGrace      = bgPeriod // background lifetime past the last foreground packet
)

// txDuration is the serialization time of size bytes at rate bytes/sec.
func txDuration(size int, rate float64) time.Duration {
	return time.Duration(float64(size) / rate * float64(time.Second))
}

// bottleneck models a finite-rate transmitter with an AQM queue and
// optional phantom background load on one link direction.
//
// The transmitter runs in one of two drives:
//
//   - events (Sim.SetXTrafficMode(XTrafficEvents)): every serialization
//     boundary — phantom or foreground — is a scheduler event, the
//     reference implementation the lazy drive is tested against;
//   - lazy (the default): phantom boundaries are never events. They
//     replay in an arithmetic catch-up loop (Sim.advanceLazy) ordered
//     against real events by (time, reserved seq); a foreground packet
//     costs exactly one event, its serialization finish, scheduled where
//     the events drive schedules it — at the boundary that starts it,
//     replayed or not.
//
// Both run the same step at every serialization boundary —
// Link.boundary: inject the background, complete the packet on the
// wire, dequeue and start the next — so they drive the AQM through the
// identical per-packet decision sequence and PRNG draw order; campaign
// datasets are byte-identical across drives.
type bottleneck struct {
	link *Link
	d    int     // direction index on link
	rate float64 // serialization rate, bytes/sec
	util float64 // background offered load as a fraction of rate
	q    aqm.Queue
	// bgTx is the precomputed serialization hold of one phantom; bgOn
	// the burst (on-phase) duration of each background period; bgPeak
	// the precomputed bgPeakFactor×rate product of arrivalBytes' final
	// expression (left-associated, so the cache is bit-identical); and
	// bgStep that final expression itself for an active span of exactly
	// bgTx — the same operands in the same order, so returning it is
	// bit-identical to computing it.
	bgTx   time.Duration
	bgOn   time.Duration
	bgPeak float64
	bgStep float64
	// period window cache: arrivalBytes integrates boundary-sized steps,
	// so consecutive calls almost always fall inside one background
	// period — these bounds replace an integer division with two
	// comparisons.
	periodStart, periodEnd time.Duration

	busyUntil time.Duration // the packet on the wire's serialization boundary
	virtSeq   uint64        // seq a lazy boundary's event would carry

	lastInject time.Duration // background accounted up to here
	credit     float64       // fractional background bytes carried over
	fgUntil    time.Duration // background active until here (foreground + grace)

	lazy bool // a member of sim.lazy

	// txPkt is the packet on the wire, nil while the transmitter is
	// idle; txDone is the serialization-boundary event's callback, bound
	// once at SetBottleneck so per-packet transmission schedules no new
	// closure.
	txPkt  *aqm.Packet
	txDone func()
}

// before orders two lazily replayed boundaries as their events would
// fire: by time, then by the seq each reserved.
func (bn *bottleneck) before(o *bottleneck) bool {
	return bn.busyUntil < o.busyUntil || (bn.busyUntil == o.busyUntil && bn.virtSeq < o.virtSeq)
}

// SetBottleneck attaches a serialization-rate bottleneck with AQM queue
// q to the from→peer direction, once, while the world is built. rate is
// in bytes/sec; utilization adds phantom background cross-traffic at
// utilization×rate mean offered load (0 = the direction carries only
// foreground traffic). SetBottleneck panics on a second attach to the
// direction, a nil queue or a non-positive rate.
func (l *Link) SetBottleneck(from Node, rate, utilization float64, q aqm.Queue) {
	d := l.dir(from)
	switch {
	case l.bneck[d] != nil:
		panic("netsim: bottleneck already attached on " + from.Label() + "'s side of the link")
	case q == nil:
		panic("netsim: bottleneck needs a queue")
	case !(rate > 0):
		panic("netsim: bottleneck needs a positive rate")
	}
	bn := &bottleneck{
		link:       l,
		d:          d,
		rate:       rate,
		util:       utilization,
		q:          q,
		bgTx:       txDuration(bgPacketSize, rate),
		bgOn:       time.Duration(utilization / bgPeakFactor * float64(bgPeriod)),
		bgPeak:     bgPeakFactor * rate,
		lastInject: l.sim.Now(),
	}
	bn.bgStep = bn.bgPeak * bn.bgTx.Seconds()
	bn.txDone = func() { l.boundary(bn, l.sim.Now()) }
	l.bneck[d] = bn
}

// reset returns the transmitter to what SetBottleneck built on a
// simulator at time zero — idle, nothing on the wire, no background
// accounted (Sim.Reset has already emptied the lazy set and cleared
// lazy) — and empties the queue, lifetime Stats included. A field
// added to the mutable half of bottleneck belongs here too;
// TestResetMatchesInstantiate fails until it is.
func (bn *bottleneck) reset() {
	if bn.txPkt != nil {
		bn.txPkt.Free()
		bn.txPkt = nil
	}
	bn.q.Reset()
	bn.periodStart, bn.periodEnd = 0, 0
	bn.busyUntil = 0
	bn.virtSeq = 0
	bn.lastInject = 0
	bn.credit = 0
	bn.fgUntil = 0
}

// boundary is the serialization boundary at time now, the one step
// both drives run: the boundary event (txDone) and Sim.advanceLazy's
// replay call it, with the simulator clock or the virtual boundary
// time, and an idle transmitter's first packet starts through it too
// (serveQueue), with nothing on the wire to finish. It
// does DESIGN.md §10.1's three things, in order:
//
//  1. inject the background that arrived while the packet on the wire
//     serialized;
//  2. complete that packet: a foreground one delivers after the link
//     delay, a phantom (the queue's reusable shell, nothing to free) is
//     only counted;
//  3. dequeue the next packet and start it, or idle the transmitter.
//
// The injection and the dequeue are one discipline call,
// Queue.Boundary; completing the packet in between touches neither the
// queue nor the PRNG, so the queue sees exactly an EnqueuePhantoms
// followed by a Dequeue, and the shared seq counter exactly the
// delivery's draw followed by the start's.
func (l *Link) boundary(bn *bottleneck, now time.Duration) {
	s := l.sim
	n := 0
	if p := bn.txPkt; p != nil {
		n = bn.arrivals(now)
		switch {
		case !p.Phantom():
			l.deliver(bn)
		case s.xtrafficEvents:
			s.phantomEvents++
		default:
			s.replayedBoundaries++
		}
	}

	p, ok := bn.q.Boundary(now, bgPacketSize, n)
	if !ok {
		bn.txPkt = nil
		s.unregisterLazy(bn)
		return
	}
	bn.txPkt = p
	tx := bn.bgTx
	if p.Size != bgPacketSize {
		tx = txDuration(p.Size, bn.rate)
	}
	bn.busyUntil = now + tx
	if s.xtrafficEvents || !p.Phantom() {
		// The boundary that ends this packet is an event: every boundary
		// on the events drive, a foreground finish on the lazy one. It
		// draws the seq the events drive draws here, and replay pauses
		// for this bottleneck until it fires.
		s.unregisterLazy(bn)
		s.At(bn.busyUntil, bn.txDone)
		return
	}
	// Lazy virtual boundary: reserve the seq its event would have drawn
	// and let Sim.advanceLazy replay it in exact order. Registration is
	// eligibility — the replay takes every member as a pending phantom
	// boundary.
	bn.virtSeq = s.nextSeq()
	s.registerLazy(bn)
}

// deliver hands the foreground packet that finished serializing to
// propagation: it arrives at the peer after the link delay.
func (l *Link) deliver(bn *bottleneck) {
	l.sim.deliverAfter(l, bn.d, bn.txPkt.TakeBuf())
}

// serveQueue begins serializing the queue head if the transmitter is
// idle: a boundary with nothing on the wire to finish.
func (l *Link) serveQueue(bn *bottleneck, now time.Duration) {
	if bn.txPkt == nil {
		l.boundary(bn, now)
	}
}

// arrivals advances the background arrival process to now and returns
// how many phantoms arrived since it was last advanced. It runs at
// every enqueue and serialization boundary, so the background process
// needs no events of its own and a drained simulation really is
// finished. While the transmitter is busy, every arrival since the
// last update counts (the queue's discipline decides their fate);
// across an idle gap the queue was empty and draining faster than
// background arrived, so only the net backlog of the recent burst
// pattern is reconstructed.
func (bn *bottleneck) arrivals(now time.Duration) int {
	// Background only arrives while foreground keeps it alive; beyond
	// fgUntil the cross-traffic source has quenched.
	end := min(now, bn.fgUntil)
	busy := bn.txPkt != nil
	if bn.util <= 0 || end <= bn.lastInject {
		if bn.util <= 0 || !busy {
			// The queue drained anything older; restart accounting here.
			bn.lastInject = now
			bn.credit = 0
		}
		return 0
	}
	var bytes float64
	if busy {
		bytes = bn.credit + bn.arrivalBytes(bn.lastInject, end)
	} else {
		backlog := bn.idleBacklog(bn.lastInject, end)
		// Anything accumulated by the quench point drains at line rate
		// until now.
		backlog -= float64(bn.rate * (now - end).Seconds())
		if backlog < 0 {
			backlog = 0
		}
		bytes = backlog
	}
	bn.lastInject = now
	n := int(bytes / bgPacketSize)
	bn.credit = bytes - float64(float64(n)*bgPacketSize)
	return n
}

// arrivalBytes integrates the background arrival process over [t1, t2).
// The final expression is shared by every path, so the fast single-
// period case is bit-identical to the general loop — credit rounding,
// and with it the phantom count, cannot depend on which path ran. The
// two spans nearly every boundary asks for skip its division: a whole
// phantom hold inside an on phase returns bgStep, the product computed
// once at SetBottleneck, and a span of no on time returns the product
// with zero seconds.
func (bn *bottleneck) arrivalBytes(t1, t2 time.Duration) float64 {
	if bn.util >= bgPeakFactor {
		// Saturated: constant arrivals at util×rate.
		return bn.util * bn.rate * (t2 - t1).Seconds()
	}
	on := bn.bgOn // on span of each period
	if t1 < bn.periodStart || t2 > bn.periodEnd {
		// Refresh the cached period window for t1's period; boundary-
		// sized steps make the refresh rare.
		start := t1 / bgPeriod * bgPeriod
		bn.periodStart, bn.periodEnd = start, start+bgPeriod
	}
	var active time.Duration
	if t2 <= bn.periodEnd {
		// [t1, t2) inside one period — the per-boundary common case:
		// the on-phase overlap directly, no period walk.
		s, e := t1, bn.periodStart+on
		if e > t2 {
			e = t2
		}
		if e > s {
			active = e - s
		}
	} else {
		for k := t1 / bgPeriod; ; k++ {
			start := k * bgPeriod
			if start >= t2 {
				break
			}
			s, e := start, start+on
			if s < t1 {
				s = t1
			}
			if e > t2 {
				e = t2
			}
			if e > s {
				active += e - s
			}
		}
	}
	switch active {
	case bn.bgTx:
		return bn.bgStep
	case 0:
		return bn.bgPeak * 0
	}
	return bn.bgPeak * active.Seconds()
}

// idleBacklog reconstructs the fluid backlog the background alone would
// have built by t2, starting from the empty queue the idle transmitter
// implies at t1: bursts grow it at (peak − 1)×rate, off periods drain it
// at the full rate, clamped to the buffer. Only recent history can
// matter under the clamp, so the window is bounded.
func (bn *bottleneck) idleBacklog(t1, t2 time.Duration) float64 {
	capBytes := float64(bn.q.Cap()) * bgPacketSize
	if bn.util >= bgPeakFactor {
		growth := (bn.util - 1) * bn.rate * (t2 - t1).Seconds()
		if growth > capBytes {
			return capBytes
		}
		if growth < 0 {
			return 0
		}
		return growth
	}
	if t2-t1 > 64*bgPeriod {
		t1 = t2 - 64*bgPeriod
	}
	on := bn.bgOn
	backlog := 0.0
	step := func(dt time.Duration, arrivalRate float64) {
		backlog += float64((arrivalRate - bn.rate) * dt.Seconds())
		if backlog < 0 {
			backlog = 0
		}
		if backlog > capBytes {
			backlog = capBytes
		}
	}
	for k := t1 / bgPeriod; ; k++ {
		start := k * bgPeriod
		if start >= t2 {
			break
		}
		// On phase [start, start+on), then off phase.
		s, e := max(t1, start), min(t2, start+on)
		if e > s {
			step(e-s, bn.bgPeak)
		}
		s, e = max(t1, start+on), min(t2, start+bgPeriod)
		if e > s {
			step(e-s, 0)
		}
	}
	return backlog
}
