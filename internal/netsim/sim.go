// Package netsim is a deterministic discrete-event network simulator that
// forwards real wire-format IPv4 packets between simulated hosts and
// routers.
//
// The simulator replaces the live Internet used by the original study: it
// provides the same observable surface — packet delivery, loss, TTL
// expiry with quoted ICMP errors, and middleboxes that rewrite the ECN
// field of transit traffic — over a topology that the topology package
// generates. All protocol code (NTP, DNS, TCP, HTTP, traceroute) runs
// unmodified over this substrate.
//
// Design notes:
//
//   - Virtual time. Events are (time, sequence)-ordered; Run drains the
//     pending set. There are no wall-clock sleeps, so a campaign covering
//     hours of virtual time completes in seconds.
//   - Determinism. All randomness (link loss, timer jitter in protocols)
//     is drawn from a single seeded PRNG owned by the Sim. The same seed
//     reproduces a byte-identical packet history, which the tests rely on.
//   - Real bytes. Nodes exchange serialized IPv4 datagrams held in pooled
//     packet.Buf wire buffers. Routers parse and mutate the actual wire
//     bytes, so header checksums, TTL handling and TOS rewrites behave
//     exactly as on a real path.
//   - Per-delay lanes. Nearly every event is a packet delivery due at
//     now + the link's delay, and a world has only a handful of distinct
//     delays, so the default scheduler keeps one FIFO ring per delay —
//     sorted by (time, seq) for free — and a binary heap for everything
//     else (timers, the lazy drive's finishes). Push and pop are O(1)
//     for a delivery; a pop compares the lane heads with the heap root.
//     Both schedulers pop in exactly the same (time, seq) order, so a
//     campaign's traces are bit-identical under either.
//   - Bottlenecks. A link direction may carry one finite-rate
//     transmitter with an AQM queue (Link.SetBottleneck), attached once
//     while the world is built; its phantom cross-traffic replays lazily
//     (link.go, DESIGN.md §10.1) rather than costing an event per
//     serialization boundary.
//   - Reference implementations. The heap-only scheduler (NewSimSched
//     with SchedHeap) and the one-event-per-phantom-boundary cross-
//     traffic drive (SetXTrafficMode with XTrafficEvents) are what the
//     production lanes and lazy replay are tested against. Only tests
//     reach them: NewSim makes the production simulator, every world a
//     campaign runs is made on one (topology.Compile), and only a test
//     can ask for a blueprint whose worlds run on a reference
//     (Blueprint.WithSims in package topology).
//   - Zero steady-state allocation. A delivery is a typed lane entry
//     rather than a closure; other event bodies live in a slab indexed
//     by a free list, and the heap's entries are pointer-free (they
//     address the slab by index), so sifting never touches the write
//     barrier. Once the rings and pools are warm, the per-packet hot
//     path — build, send, deliver, receive — allocates nothing.
package netsim

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/packet"
)

// Scheduler selects the Sim's pending-event data structure.
type Scheduler uint8

// The available schedulers. SchedLanes is the default: packet
// deliveries ride per-delay FIFO lanes and everything else a binary
// heap. SchedHeap puts every event on the heap, a reference
// implementation the lanes' ordering is checked against.
const (
	SchedLanes Scheduler = iota
	SchedHeap
)

// Name returns the scheduler's name ("lanes" or "heap").
func (s Scheduler) Name() string {
	if s == SchedHeap {
		return "heap"
	}
	return "lanes"
}

// XTrafficMode selects how a bottleneck's phantom cross-traffic
// advances: lazily replayed in an arithmetic catch-up loop (the
// default), or as one scheduler event per phantom serialization
// boundary (a reference implementation). Both modes
// drive the AQM through the identical per-packet decision sequence and
// PRNG draw order, so campaign datasets are byte-identical either way —
// the property campaign's TestDeterminismGrid verifies.
type XTrafficMode uint8

// The available cross-traffic drive modes.
const (
	XTrafficLazy XTrafficMode = iota
	XTrafficEvents
)

// Name returns the mode's name ("lazy" or "events").
func (m XTrafficMode) Name() string {
	if m == XTrafficEvents {
		return "events"
	}
	return "lazy"
}

// Sim is the discrete-event engine. Create one with NewSim, add nodes and
// links (usually via Network), schedule initial work, then call Run.
//
// The fields every event writes sit between two simPad blocks: shard
// workers allocate their simulators back to back, and without the
// padding one worker's clock and counter writes would land on a cache
// line the neighbouring worker's Sim reads on every pop
// (TestSimHotFieldsPadded).
type Sim struct {
	_ [simPad]byte

	now time.Duration
	seq uint64
	// Stats counters, exposed for benchmarks and capacity planning.
	executed uint64

	// lanes hold the pending packet deliveries, one FIFO per distinct
	// link delay (a link direction learns its lane when it is built);
	// heapOnly, the SchedHeap reference, leaves them empty and puts
	// deliveries on the heap with everything else.
	lanes    []lane
	heapOnly bool
	// heap is the pending-event priority queue for everything that is
	// not a lane delivery: pointer-free entries ordered by (at, seq),
	// with idx addressing the body in slab.
	heap []heapEntry
	slab []event
	free []int32 // recycled slab indices
	rng  *rand.Rand
	// seed is the construction seed; Reset rewinds rng to it.
	seed int64

	// xtrafficEvents selects the legacy one-event-per-phantom-boundary
	// transmitter drive (XTrafficEvents); the default is lazy catch-up
	// replay.
	xtrafficEvents bool
	// lazy lists the bottlenecks currently serializing without events,
	// ordered by their pending boundary's (time, seq); Step replays
	// boundaries from the front, in exact (time, seq) order, before
	// dispatching any event past them.
	lazy []*bottleneck
	// replayedBoundaries counts phantom serialization boundaries replayed
	// arithmetically instead of dispatched as events; phantomEvents
	// counts the ones that did run as events (the events drive).
	replayedBoundaries uint64
	phantomEvents      uint64

	// UserData belongs to the protocol layers above: tcpsim keeps the
	// simulation's connection-shell pool here, shared by every stack on
	// the simulator. Capacity, not state: Reset leaves it alone.
	UserData any

	_ [simPad]byte
}

// simPad is two cache lines: the adjacent-line prefetcher pulls lines
// in pairs, so a neighbour's writes must stay 128 B away.
const simPad = 128

// NewSim returns a simulator whose randomness derives from seed, using
// the default lanes scheduler.
func NewSim(seed int64) *Sim { return NewSimSched(seed, SchedLanes) }

// NewSimSched returns a simulator with an explicit scheduler choice. The
// two schedulers fire events in exactly the same order; SchedHeap exists
// so tests can prove that.
func NewSimSched(seed int64, sched Scheduler) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed, heapOnly: sched == SchedHeap}
}

// Reset returns the simulator to the state NewSimSched produced: clock
// at zero, sequence counter rewound, every statistic cleared, the PRNG
// back at the construction seed's stream. Events still pending are
// discarded unexecuted (their wire buffers released). The
// scheduler choice, the cross-traffic mode and the lanes (one per link
// delay, fixed when the links were built) are configuration and stay;
// so does capacity — the event slab and its free list, the heap's and
// the lanes' backing arrays — which is the point: a reset simulator
// schedules without growing anything (DESIGN.md §9.4).
//
// Slab generations are deliberately not rewound, so a Timer handle
// from before the Reset stays stale instead of cancelling a stranger.
// Reset does not touch the nodes and links built on the simulator;
// Network.Reset does.
func (s *Sim) Reset() {
	for i := range s.lanes {
		s.lanes[i].reset()
	}
	for len(s.heap) > 0 {
		idx := s.heap[0].idx
		s.heapPopRoot()
		s.slab[idx].buf.Release()
		s.recycle(idx)
	}
	s.now = 0
	s.seq = 0
	s.executed = 0
	s.replayedBoundaries = 0
	s.phantomEvents = 0
	for _, bn := range s.lazy {
		bn.lazy = false
	}
	s.lazy = s.lazy[:0]
	s.rng.Seed(s.seed)
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// RNG exposes the simulation's deterministic random source. All model
// randomness must come from here to preserve reproducibility.
func (s *Sim) RNG() *rand.Rand { return s.rng }

// Reseed rewinds the simulation's random source to a fresh stream derived
// from seed. The generator is reseeded in place, so components that
// captured RNG() earlier (links, middlebox policies, AQM queues) observe
// the new stream too. The sharded campaign engine uses this to give each
// measurement phase — discovery, every trace, the traceroute sweep — a
// stream derived from its own identity rather than from whatever ran
// before it in the same simulator, which is what makes the merged
// dataset independent of how traces are grouped into shards.
func (s *Sim) Reseed(seed int64) { s.rng.Seed(seed) }

// Executed reports how many events have run; useful for benchmarks.
func (s *Sim) Executed() uint64 { return s.executed }

// SetXTrafficMode selects the cross-traffic drive for every bottleneck
// on this simulator. Call it before any traffic flows; switching modes
// mid-flight on an active bottleneck is not supported.
func (s *Sim) SetXTrafficMode(m XTrafficMode) { s.xtrafficEvents = m == XTrafficEvents }

// ReplayedBoundaries reports how many phantom serialization boundaries
// were replayed arithmetically — work the event loop never saw.
func (s *Sim) ReplayedBoundaries() uint64 { return s.replayedBoundaries }

// PhantomEvents reports how many phantom serialization boundaries ran
// as scheduler events.
func (s *Sim) PhantomEvents() uint64 { return s.phantomEvents }

// nextSeq hands out the sequence number a scheduled event would have
// received. Lazily-driven bottlenecks consume one per virtual boundary,
// keeping the counter, and with it the FIFO tiebreak of every later
// same-timestamp event, in lockstep with the events mode.
func (s *Sim) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// registerLazy files a bottleneck whose phantom boundary (busyUntil,
// virtSeq) was just set into the lazily-driven set, in boundary order.
// A member is left where it is: only the replay re-files members, and
// advanceLazy does that itself after each boundary it runs.
func (s *Sim) registerLazy(bn *bottleneck) {
	if bn.lazy {
		return
	}
	bn.lazy = true
	i := len(s.lazy)
	s.lazy = append(s.lazy, bn)
	for ; i > 0 && bn.before(s.lazy[i-1]); i-- {
		s.lazy[i] = s.lazy[i-1]
	}
	s.lazy[i] = bn
}

// unregisterLazy removes a bottleneck from the lazily-driven set,
// keeping the rest in order.
func (s *Sim) unregisterLazy(bn *bottleneck) {
	if !bn.lazy {
		return
	}
	bn.lazy = false
	i := 0
	for s.lazy[i] != bn {
		i++
	}
	copy(s.lazy[i:], s.lazy[i+1:])
	s.lazy[len(s.lazy)-1] = nil
	s.lazy = s.lazy[:len(s.lazy)-1]
}

// advanceLazy replays, across every lazily-driven bottleneck, all
// phantom serialization boundaries whose (time, seq) precede the given
// horizon — in exactly the order the events mode would have fired them,
// seq ties included, because each virtual boundary carries the sequence
// number its event would have drawn from the same counter. Step calls
// it with the next event's (at, seq) before dispatching, so every PRNG
// draw a boundary makes lands at the identical position in the shared
// random stream.
//
// The set is kept in boundary order, so the next boundary is always the
// front member's. Running it either drops the member (its transmitter
// idles, or a foreground packet takes the wire) or moves its boundary
// later — the next one starts where this one ends, and draws a fresh,
// larger seq — so the member is re-filed toward the back, behind every
// boundary it now follows.
//
// A foreground packet taking the wire schedules its finish, an event
// that may come before the horizon; advanceLazy stops there and
// reports true, and the caller looks for the next event again.
func (s *Sim) advanceLazy(at time.Duration, seq uint64) bool {
	for len(s.lazy) > 0 {
		bn := s.lazy[0]
		if bn.busyUntil > at || (bn.busyUntil == at && bn.virtSeq > seq) {
			return false
		}
		bn.link.boundary(bn, bn.busyUntil)
		if !bn.lazy {
			if bn.txPkt != nil {
				return true
			}
			continue
		}
		lz := s.lazy
		i := 0
		for ; i+1 < len(lz) && lz[i+1].before(bn); i++ {
			lz[i] = lz[i+1]
		}
		lz[i] = bn
	}
	return false
}

// catchUp replays the lazily-driven boundaries that precede (at, seq)
// and reports whether one scheduled an event, which may now come
// first. Without bottlenecks it costs one length check.
func (s *Sim) catchUp(at time.Duration, seq uint64) bool {
	return len(s.lazy) > 0 && s.advanceLazy(at, seq)
}

// maxDuration is the largest representable virtual time.
const maxDuration = time.Duration(1<<63 - 1)

// Timer is a handle to a scheduled event that can be cancelled. It is a
// small value — keep it by value, not behind a pointer, so arming a
// timer allocates nothing. The handle records the event's generation:
// once the event fires or is recycled, the handle goes stale and Stop
// becomes a no-op, so slab slots can be reused without a stale Timer
// cancelling a stranger. The zero Timer is valid and stopped.
type Timer struct {
	s   *Sim
	idx int32
	gen uint64
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was still pending.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.slab[t.idx]
	if ev.gen != t.gen || ev.fn == nil {
		return false
	}
	ev.fn = nil
	return true
}

// After schedules fn to run d from now and returns a cancellable handle.
// A negative d is treated as zero: the event runs after the events already
// scheduled for the current instant (FIFO within a timestamp).
func (s *Sim) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("netsim: nil event function")
	}
	idx := s.schedule(t)
	ev := &s.slab[idx]
	ev.fn = fn
	return Timer{s: s, idx: idx, gen: ev.gen}
}

// deliverAfter schedules delivery of a wire buffer across link l in
// direction d, the link's delay from now, drawing the next sequence
// number. Delivery is a typed event — no closure, no allocation — and
// transfers the caller's buffer reference to the receiving node. On the
// lanes scheduler it is an entry on the direction's lane and never
// touches the slab; the heap reference files it as a slab event.
func (s *Sim) deliverAfter(l *Link, d int, b *packet.Buf) {
	s.seq++
	at := s.now + l.delay
	if s.heapOnly {
		ev := &s.slab[s.scheduleSeq(at, s.seq)]
		ev.buf, ev.link, ev.dir = b, l, uint8(d)
		return
	}
	e := s.lanes[l.lane].push(at, s.seq)
	e.buf, e.link, e.dir = b, l, uint8(d)
}

// laneFor returns the index of the lane for link delay d, opening one
// the first time a delay is seen. Links call it once, when they are
// built, so a fresh world and a reset one hold the same lanes.
func (s *Sim) laneFor(d time.Duration) uint8 {
	for i := range s.lanes {
		if s.lanes[i].delay == d {
			return uint8(i)
		}
	}
	if len(s.lanes) > math.MaxUint8 {
		panic("netsim: too many distinct link delays")
	}
	s.lanes = append(s.lanes, lane{delay: d})
	return uint8(len(s.lanes) - 1)
}

// schedule allocates an event body (from the free list when possible)
// and queues it at absolute time t, returning its slab index.
func (s *Sim) schedule(t time.Duration) int32 {
	s.seq++
	return s.scheduleSeq(t, s.seq)
}

// scheduleSeq queues an event with an explicit sequence number:
// schedule's fresh draw, or the one a heap-reference delivery drew.
func (s *Sim) scheduleSeq(t time.Duration, seq uint64) int32 {
	if t < s.now {
		t = s.now
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slab = append(s.slab, event{})
		idx = int32(len(s.slab) - 1)
	}
	s.heapPush(heapEntry{at: t, seq: seq, idx: idx})
	return idx
}

// recycle clears an event body, bumps its generation (staling Timer
// handles), and returns its slot to the free list.
func (s *Sim) recycle(idx int32) {
	ev := &s.slab[idx]
	ev.gen++
	ev.fn = nil
	ev.buf = nil
	ev.link = nil
	s.free = append(s.free, idx)
}

// dead reports whether an event was cancelled before firing.
func (ev *event) dead() bool { return ev.fn == nil && ev.buf == nil }

// nextLane returns the lane whose head delivery comes first in
// (at, seq) order, and that head, or nils when every lane is empty. A
// world has a handful of distinct link delays (TestWorldLinkDelays
// holds both scales to eight), so the scan is a few compares.
func (s *Sim) nextLane() (*lane, *delivery) {
	var best *lane
	var head *delivery
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.n == 0 {
			continue
		}
		if e := &l.ring[l.head]; head == nil || e.before(head.at, head.seq) {
			best, head = l, e
		}
	}
	return best, head
}

// Step executes the next pending event: the least (at, seq) among the
// lane heads and the heap root. Lazily-driven bottlenecks catch up
// first: every phantom boundary ordered before it replays, so its PRNG
// draws precede the handler's exactly as the events mode interleaves
// them, and a finish one of them schedules is looked at before the
// event. With no event left, the replay runs to quiescence — background
// arrivals quench a grace period after the last foreground packet, so
// it ends — leaving queue statistics and discipline state where the
// events mode's boundary events leave them. Step reports whether an
// event ran.
func (s *Sim) Step() bool {
	for {
		ln, head := s.nextLane()
		if len(s.heap) > 0 {
			if he := s.heap[0]; head == nil || !head.before(he.at, he.seq) {
				if s.slab[he.idx].dead() { // cancelled
					s.heapPopRoot()
					s.recycle(he.idx)
					continue
				}
				if s.catchUp(he.at, he.seq) {
					continue
				}
				s.heapPopRoot()
				s.now = he.at
				s.executed++
				ev := &s.slab[he.idx]
				if ev.buf != nil {
					buf, link, d := ev.buf, ev.link, int(ev.dir)
					s.recycle(he.idx)
					link.peerOf(d).Receive(buf, link)
				} else {
					fn := ev.fn
					s.recycle(he.idx)
					fn()
				}
				return true
			}
		}
		if ln == nil {
			if s.catchUp(maxDuration, ^uint64(0)) {
				continue
			}
			return false
		}
		if s.catchUp(head.at, head.seq) {
			continue
		}
		e := ln.pop()
		buf, link, d := e.buf, e.link, int(e.dir)
		s.now = e.at
		s.executed++
		link.peerOf(d).Receive(buf, link)
		return true
	}
}

// Run drains the event queue and every lazily-driven bottleneck: the
// state an events-mode Run reaches via boundary events.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond it remain queued; lazily-
// driven bottleneck boundaries up to the deadline are replayed, exactly
// as the events mode would have fired them.
func (s *Sim) RunUntil(deadline time.Duration) {
	for {
		if at, ok := s.peekLive(); ok && at <= deadline {
			s.Step()
		} else if !s.catchUp(deadline, ^uint64(0)) {
			break
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peekLive returns the earliest live event time, recycling cancelled
// heap events it skips over so RunUntil sees true deadlines. A lane
// holds no cancelled entries.
func (s *Sim) peekLive() (time.Duration, bool) {
	for len(s.heap) > 0 && s.slab[s.heap[0].idx].dead() {
		idx := s.heap[0].idx
		s.heapPopRoot()
		s.recycle(idx)
	}
	at, ok := time.Duration(0), false
	if _, head := s.nextLane(); head != nil {
		at, ok = head.at, true
	}
	if len(s.heap) > 0 && (!ok || s.heap[0].at < at) {
		at, ok = s.heap[0].at, true
	}
	return at, ok
}

// delivery is a pending packet delivery on a lane: the buffer crossing
// link in direction dir, due at (at, seq).
type delivery struct {
	at   time.Duration
	seq  uint64
	buf  *packet.Buf
	link *Link
	dir  uint8
}

// before reports whether e fires before an event at (at, seq).
func (e *delivery) before(at time.Duration, seq uint64) bool {
	return e.at < at || (e.at == at && e.seq < seq)
}

// lane is the FIFO of pending deliveries over the links of one
// propagation delay. It is sorted by (at, seq) without any work: every
// entry is pushed at now + delay, now never decreases, and seq grows
// with every push, so each entry follows the one before it — push
// checks that rather than trusting it.
type lane struct {
	delay time.Duration
	// ring holds the entries in [head, head+n), wrapping; its length is
	// zero or a power of two. Slots outside that window are stale and
	// never read.
	ring    []delivery
	head, n int
}

// push appends a delivery due at (at, seq) and returns its entry for
// the caller to fill in, panicking if it would not be the lane's last
// in (at, seq) order.
func (l *lane) push(at time.Duration, seq uint64) *delivery {
	if l.n == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	if l.n > 0 && !l.ring[(l.head+l.n-1)&mask].before(at, seq) {
		panic("netsim: lane delivery pushed out of (at, seq) order")
	}
	e := &l.ring[(l.head+l.n)&mask]
	e.at, e.seq = at, seq
	l.n++
	return e
}

// pop removes the head delivery and returns it; the lane must be
// non-empty. The entry is valid until the next push.
func (l *lane) pop() *delivery {
	e := &l.ring[l.head]
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return e
}

// grow doubles the ring, unwrapping the live window to the front.
func (l *lane) grow() {
	ring := make([]delivery, max(2*len(l.ring), 16))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// reset discards the pending deliveries, releasing their buffers, and
// keeps the ring.
func (l *lane) reset() {
	for l.n > 0 {
		l.pop().buf.Release()
	}
	l.head = 0
}

// heapEntry is a queued event reference: ordering fields inline (no
// pointer chase in comparisons, no write barrier in swaps) plus the
// slab index of the event body.
type heapEntry struct {
	at  time.Duration
	seq uint64 // tiebreak: FIFO within a timestamp
	idx int32
}

// event is a heap event's body. Exactly one of fn and buf is set for a
// live event: fn-events run arbitrary code, buf-events are the heap
// reference's packet deliveries (buf crosses link in direction dir).
// Cancellation nils fn in place; the heap discards dead events lazily.
type event struct {
	gen uint64 // incremented on recycle; stales Timer handles
	fn  func()

	buf  *packet.Buf
	link *Link
	dir  uint8
}

// less orders entries by (at, seq).
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) heapPush(he heapEntry) {
	h := append(s.heap, he)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.heap = h
}

func (s *Sim) heapPopRoot() {
	h := s.heap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	// Sift down.
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].less(h[smallest]) {
			smallest = l
		}
		if r < n && h[r].less(h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	s.heap = h
}
