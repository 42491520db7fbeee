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
	// rtr holds the endpoints that are routers (nil for a host end), so
	// the forwarding path finds its egress direction with a pointer
	// comparison instead of an interface one.
	rtr [2]*Router
	// Directional properties, indexed by direction (a→b = 0, b→a = 1).
	delay [2]time.Duration
	loss  [2]float64
	// baseLoss is the loss the link was created with; reset restores it.
	baseLoss float64
	bneck    [2]*bottleneck

	// Counters for analysis and capacity tests.
	sent    [2]uint64
	dropped [2]uint64
}

// newLink wires two nodes together. Use Network helpers instead of
// constructing links directly.
func newLink(sim *Sim, a, b Node, delay time.Duration, loss float64) *Link {
	l := &Link{
		sim:      sim,
		a:        a,
		b:        b,
		delay:    [2]time.Duration{delay, delay},
		loss:     [2]float64{loss, loss},
		baseLoss: loss,
	}
	l.rtr[0], _ = a.(*Router)
	l.rtr[1], _ = b.(*Router)
	return l
}

// reset returns the link to its just-built state: creation-time loss,
// counters zeroed, each bottleneck's transmitter idle and its queue
// empty. Delay and the bottleneck placement are structure and stay.
func (l *Link) reset() {
	l.loss = [2]float64{l.baseLoss, l.baseLoss}
	l.sent = [2]uint64{}
	l.dropped = [2]uint64{}
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

// SetLoss sets the loss probability for packets transmitted by from. The
// campaign uses this to model per-trace variation (wireless jitter, the
// congested home access link).
func (l *Link) SetLoss(from Node, p float64) {
	l.loss[l.dir(from)] = p
}

// SetLossBoth sets loss in both directions.
func (l *Link) SetLossBoth(p float64) {
	l.loss[0], l.loss[1] = p, p
}

// SetDelay sets the one-way delay for packets transmitted by from.
func (l *Link) SetDelay(from Node, d time.Duration) {
	l.delay[l.dir(from)] = d
}

// Loss returns the loss probability for packets transmitted by from.
func (l *Link) Loss(from Node) float64 { return l.loss[l.dir(from)] }

// Delay returns the one-way delay for packets transmitted by from.
func (l *Link) Delay(from Node) time.Duration { return l.delay[l.dir(from)] }

// Stats returns packets sent and dropped in the from→peer direction.
// Dropped covers both random loss draws and AQM queue drops; the queue's
// own Stats break the latter down.
func (l *Link) Stats(from Node) (sent, dropped uint64) {
	d := l.dir(from)
	return l.sent[d], l.dropped[d]
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

// dirFrom is dir for a router endpoint.
func (l *Link) dirFrom(r *Router) int {
	if l.rtr[0] == r {
		return 0
	}
	if l.rtr[1] == r {
		return 1
	}
	panic("netsim: node not on link " + r.label)
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
		l.dropped[d]++
		b.Release()
		return
	}
	to := l.peerOf(d)
	bn := l.bneck[d]
	if bn == nil {
		// Infinite-rate path: identical to the pre-congestion substrate.
		l.sim.deliverAfter(l.delay[d], to, b, l)
		return
	}
	now := l.sim.Now()
	l.injectBackground(bn, now)
	// Background stays active for a grace period past the last foreground
	// packet: cross traffic contends with the measurement while it runs,
	// then quenches so the simulation can drain (the same reason the RTP
	// receiver self-quenches its feedback timer).
	bn.fgUntil = now + bgGrace
	p := aqm.NewPacket(b)
	sz := p.Size
	// The queue owns the packet from here: a false return means the
	// discipline dropped — and already freed — it.
	if !bn.q.Enqueue(now, p) {
		l.dropped[d]++
		// Serve the queue even when this packet was dropped: the injected
		// background must drain through the transmitter regardless.
		l.serveQueue(bn, now)
		return
	}
	bn.fgCount++
	bn.pendingTx += txDuration(sz, bn.rate)
	if !l.sim.xtrafficEvents && !bn.precise && bn.busy && !bn.evented {
		// Hybrid (head-dropping discipline): a foreground packet is now
		// in the system, so the in-flight virtual boundary converts to a
		// real event — carrying the seq it reserved when serialization
		// began, where the events mode would have scheduled it.
		bn.evented = true
		l.sim.unregisterLazy(bn)
		l.sim.atWithSeq(bn.busyUntil, bn.virtSeq, bn.txDone)
	}
	l.serveQueue(bn, now)
	if !l.sim.xtrafficEvents && bn.precise {
		// Lazy precise drive: the discipline never drops at dequeue and
		// the transmitter never idles with a backlog, so this packet's
		// serialization finish is exactly the in-flight boundary plus the
		// per-packet serialization times of everything queued — one event
		// for the whole passage, however many phantoms precede it. The
		// event carries a sentinel seq: the shared counter is consumed
		// when serialization actually begins (beginTx), where the events
		// mode consumes it, so no other seq shifts.
		l.sim.atWithSeq(bn.busyUntil+bn.pendingTx, l.sim.sentinelSeq(), bn.fgDone)
	}
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
// Every schedule computation uses this exact per-packet rounding, so a
// precomputed finish equals the sum of the boundary-by-boundary holds.
func txDuration(size int, rate float64) time.Duration {
	return time.Duration(float64(size) / rate * float64(time.Second))
}

// bottleneck models a finite-rate transmitter with an AQM queue and
// optional phantom background load on one link direction.
//
// The transmitter runs in one of three drives:
//
//   - events (Sim.SetXTrafficMode(XTrafficEvents)): every serialization
//     boundary — phantom or foreground — is a scheduler event, the
//     legacy path kept as a differential oracle;
//   - lazy precise (the default, disciplines without dequeue drops):
//     phantom boundaries are never events. They replay in an arithmetic
//     catch-up loop (Sim.advanceLazy) ordered against real events by
//     (time, reserved seq); a foreground packet costs exactly one event,
//     at its precomputed serialization finish;
//   - lazy hybrid (head-dropping disciplines, i.e. CoDel): boundaries
//     are events while any foreground packet is in the system — a head
//     drop reshapes the schedule, so finishes cannot be precomputed —
//     and replay lazily across all-phantom stretches.
//
// All three drive the AQM through the identical per-packet decision
// sequence and PRNG draw order; campaign datasets are byte-identical
// across drives.
type bottleneck struct {
	link *Link
	d    int     // direction index on link
	rate float64 // serialization rate, bytes/sec
	util float64 // background offered load as a fraction of rate
	q    aqm.Queue
	// precise: the discipline never drops at dequeue, so a queued
	// packet's serialization finish is computable at enqueue.
	precise bool
	// bgTx is the precomputed serialization hold of one phantom; bgOn
	// the burst (on-phase) duration of each background period; bgPeak
	// the precomputed bgPeakFactor×rate product of arrivalBytes' final
	// expression (left-associated, so the cache is bit-identical).
	bgTx   time.Duration
	bgOn   time.Duration
	bgPeak float64
	// period window cache: arrivalBytes integrates boundary-sized steps,
	// so consecutive calls almost always fall inside one background
	// period — these bounds replace an integer division with two
	// comparisons.
	periodStart, periodEnd time.Duration

	busy      bool          // a packet is serializing
	busyUntil time.Duration // its serialization boundary
	evented   bool          // the boundary is backed by a scheduled event
	virtSeq   uint64        // seq a lazy boundary's event would carry

	lastInject time.Duration // background accounted up to here
	credit     float64       // fractional background bytes carried over
	fgUntil    time.Duration // background active until here (foreground + grace)

	// pendingTx sums the serialization times of every queued packet —
	// exact for precise disciplines (enqueue adds, dequeue subtracts,
	// nothing else touches the queue).
	pendingTx time.Duration
	// fgCount counts foreground packets in the system (queued or on the
	// wire): the hybrid drive's events-vs-lazy switch.
	fgCount int

	lazyIdx int // index in sim.lazy; -1 when unregistered

	// txPkt is the packet on the wire; txDone is the serialization-
	// boundary callback and fgDone the lazy precise drive's foreground-
	// finish callback, both bound once at SetBottleneck so per-packet
	// transmission schedules no new closure.
	txPkt  *aqm.Packet
	txDone func()
	fgDone func()
}

// SetBottleneck attaches a serialization-rate bottleneck with AQM queue
// q to the from→peer direction. rate is in bytes/sec; utilization adds
// phantom background cross-traffic at utilization×rate mean offered
// load (0 = the direction carries only foreground traffic). Passing a
// nil queue or non-positive rate removes the bottleneck, restoring the
// infinite-rate behaviour.
func (l *Link) SetBottleneck(from Node, rate, utilization float64, q aqm.Queue) {
	d := l.dir(from)
	if old := l.bneck[d]; old != nil {
		l.sim.unregisterLazy(old)
	}
	if q == nil || rate <= 0 {
		l.bneck[d] = nil
		return
	}
	bn := &bottleneck{
		link:       l,
		d:          d,
		rate:       rate,
		util:       utilization,
		q:          q,
		precise:    !q.DropsAtDequeue(),
		bgTx:       txDuration(bgPacketSize, rate),
		bgOn:       time.Duration(utilization / bgPeakFactor * float64(bgPeriod)),
		bgPeak:     bgPeakFactor * rate,
		lastInject: l.sim.Now(),
		lazyIdx:    -1,
	}
	bn.txDone = func() { l.finishTx(bn, l.sim.Now()) }
	bn.fgDone = func() { l.foregroundDone(bn) }
	l.bneck[d] = bn
}

// reset returns the transmitter to what SetBottleneck built on a
// simulator at time zero — idle, nothing on the wire, no background
// accounted (Sim.Reset has already emptied the lazy set and cleared
// lazyIdx) — and empties the queue, lifetime Stats included. A field
// added to the mutable half of bottleneck belongs here too;
// TestResetMatchesInstantiate fails until it is.
func (bn *bottleneck) reset() {
	if bn.txPkt != nil {
		bn.txPkt.Free()
		bn.txPkt = nil
	}
	bn.q.Reset()
	bn.periodStart, bn.periodEnd = 0, 0
	bn.busy = false
	bn.busyUntil = 0
	bn.evented = false
	bn.virtSeq = 0
	bn.lastInject = 0
	bn.credit = 0
	bn.fgUntil = 0
	bn.pendingTx = 0
	bn.fgCount = 0
}

// BottleneckQueue returns the AQM queue shaping the from→peer
// direction, or nil when the direction is an infinite-rate pipe.
func (l *Link) BottleneckQueue(from Node) aqm.Queue {
	if bn := l.bneck[l.dir(from)]; bn != nil {
		return bn.q
	}
	return nil
}

// serveQueue begins serializing the queue head if the transmitter is
// idle.
func (l *Link) serveQueue(bn *bottleneck, now time.Duration) {
	if !bn.busy {
		l.beginTx(bn, now)
	}
}

// beginTx dequeues the next packet and puts it on the wire: hold for
// size/rate, then finishTx hands it to propagation and picks up the
// next. Whether the boundary is a scheduler event or a lazily replayed
// one depends on the drive mode; the dequeue decision sequence is the
// same either way.
func (l *Link) beginTx(bn *bottleneck, now time.Duration) {
	// CoDel discards not-ECT heads inside Dequeue; surface those in the
	// link's drop counter so Stats stays truthful for every discipline.
	// Precise disciplines never drop at dequeue, so the hot path skips
	// the two Stats snapshots entirely.
	var before uint64
	if !bn.precise {
		before = bn.q.Stats().WireNotECTDropped
	}
	p, ok := bn.q.Dequeue(now)
	if !bn.precise {
		if delta := bn.q.Stats().WireNotECTDropped - before; delta > 0 {
			l.dropped[bn.d] += delta
			bn.fgCount -= int(delta)
		}
	}
	if !ok {
		l.sim.unregisterLazy(bn)
		return
	}
	bn.busy = true
	bn.txPkt = p
	tx := bn.bgTx
	if p.Size != bgPacketSize {
		tx = txDuration(p.Size, bn.rate)
	}
	bn.pendingTx -= tx
	bn.busyUntil = now + tx
	switch {
	case l.sim.xtrafficEvents || (!bn.precise && bn.fgCount > 0):
		// Events drive, and the hybrid's foreground-present stretches:
		// the boundary is a real event. beginTx runs in event context
		// here (lazy replay only ever advances all-phantom hybrids), so
		// now is the simulator clock.
		bn.evented = true
		l.sim.unregisterLazy(bn)
		l.sim.At(bn.busyUntil, bn.txDone)
	case p.Phantom():
		// Lazy virtual boundary: reserve the seq its event would have
		// drawn and let Sim.advanceLazy replay it in exact order.
		// Registration is eligibility — the replay scan takes every
		// member as a pending phantom boundary.
		bn.evented = false
		bn.virtSeq = l.sim.nextSeq()
		l.sim.registerLazy(bn)
	default:
		// Lazy precise foreground on the wire: its finish event was
		// scheduled (with a sentinel seq) at enqueue; replay pauses for
		// this bottleneck until it fires. Consume the seq the events
		// mode would draw for this boundary here, keeping the shared
		// counter in lockstep.
		bn.evented = false
		l.sim.nextSeq()
		l.sim.unregisterLazy(bn)
	}
}

// finishTx completes the serialization boundary at time now: hand the
// transmitted packet to propagation and pick up the next queued one.
// Event callbacks pass the simulator clock; the lazy replay passes the
// virtual boundary time — the only difference between the drives.
func (l *Link) finishTx(bn *bottleneck, now time.Duration) {
	// The bottleneck may have been replaced or removed while this
	// packet was on the wire; only touch shared state if it is
	// still the live one. The packet itself still delivers.
	live := l.bneck[bn.d] == bn
	if live {
		l.injectBackground(bn, now) // the elapsed interval was a busy one
	}
	wasEvent := bn.evented
	bn.busy = false
	bn.evented = false
	p := bn.txPkt
	bn.txPkt = nil
	if !p.Phantom() {
		bn.fgCount--
		l.sim.deliverAfter(l.delay[bn.d], l.peerOf(bn.d), p.TakeBuf(), l)
	} else {
		p.Free()
		if wasEvent {
			l.sim.phantomEvents++
		}
	}
	if live {
		l.serveQueue(bn, now)
	} else {
		l.sim.unregisterLazy(bn)
	}
}

// replayBoundary is the lazy catch-up step: one phantom serialization
// boundary, driven arithmetically instead of through the scheduler.
func (l *Link) replayBoundary(bn *bottleneck, at time.Duration) {
	if bn.txPkt == nil || !bn.txPkt.Phantom() {
		panic("netsim: lazy cross-traffic replay reached a foreground boundary")
	}
	l.sim.replayedBoundaries++
	l.finishTx(bn, at)
}

// foregroundDone is the lazy precise drive's per-packet finish event.
// By the time it fires, Sim.advanceLazy has replayed every earlier
// boundary, so the packet on the wire is exactly the one this event was
// scheduled for.
func (l *Link) foregroundDone(bn *bottleneck) {
	now := l.sim.Now()
	if l.bneck[bn.d] != bn {
		// Replaced while queued or on the wire. Mirror the events drive:
		// a packet already serializing still delivers; queued ones are
		// abandoned with the old transmitter.
		if bn.busy && bn.txPkt != nil && !bn.txPkt.Phantom() && bn.busyUntil == now {
			l.finishTx(bn, now)
		}
		return
	}
	if !bn.busy || bn.txPkt == nil || bn.txPkt.Phantom() || bn.busyUntil != now {
		panic("netsim: foreground finish event out of sync with lazy bottleneck replay")
	}
	l.finishTx(bn, now)
}

// injectBackground brings the phantom cross-traffic up to date. It runs
// lazily at every enqueue and serialization boundary, so the background
// process needs no events of its own and a drained simulation really is
// finished. While the transmitter is busy, all arrivals since the last
// update join the queue (its discipline decides their fate); across an
// idle gap the queue was empty and draining faster than background
// arrived, so only the net backlog of the recent burst pattern is
// reconstructed.
func (l *Link) injectBackground(bn *bottleneck, now time.Duration) {
	// Background only arrives while foreground keeps it alive; beyond
	// fgUntil the cross-traffic source has quenched.
	end := min(now, bn.fgUntil)
	if bn.util <= 0 || end <= bn.lastInject {
		if bn.util <= 0 || !bn.busy {
			// The queue drained anything older; restart accounting here.
			bn.lastInject = now
			bn.credit = 0
		}
		return
	}
	var bytes float64
	if bn.busy {
		bytes = bn.credit + bn.arrivalBytes(bn.lastInject, end)
	} else {
		backlog := bn.idleBacklog(bn.lastInject, end)
		// Anything accumulated by the quench point drains at line rate
		// until now.
		backlog -= bn.rate * (now - end).Seconds()
		if backlog < 0 {
			backlog = 0
		}
		bytes = backlog
	}
	bn.lastInject = now
	n := int(bytes / bgPacketSize)
	bn.credit = bytes - float64(n)*bgPacketSize
	admitted := bn.q.EnqueuePhantoms(now, bgPacketSize, n)
	bn.pendingTx += time.Duration(admitted) * bn.bgTx
}

// arrivalBytes integrates the background arrival process over [t1, t2).
// The final expression is shared by every path, so the fast single-
// period case is bit-identical to the general loop — credit rounding,
// and with it the phantom count, cannot depend on which path ran.
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
		backlog += (arrivalRate - bn.rate) * dt.Seconds()
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
			step(e-s, bgPeakFactor*bn.rate)
		}
		s, e = max(t1, start+on), min(t2, start+bgPeriod)
		if e > s {
			step(e-s, 0)
		}
	}
	return backlog
}
