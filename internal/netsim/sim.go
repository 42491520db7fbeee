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
//   - O(1) scheduling. The default scheduler is a hierarchical timing
//     wheel (wheel.go) over the event slab: insert and fire are O(1)
//     amortized, against the O(log n) per event a binary heap pays on
//     multi-million-event congested runs. The heap remains available as
//     SchedHeap for differential testing; both pop in exactly the same
//     (time, seq) order, so a campaign's traces are bit-identical under
//     either scheduler.
//   - Zero steady-state allocation. Event bodies live in a slab indexed
//     by a free list; the wheel's slots and the heap's entries are
//     pointer-free (they address the slab by index), so scheduling never
//     touches the write barrier, and packet delivery is a typed event
//     rather than a closure. Once the pools are warm, the per-packet hot
//     path — build, send, deliver, receive — allocates nothing.
package netsim

import (
	"math/rand"
	"time"

	"repro/internal/packet"
)

// Scheduler selects the Sim's pending-event data structure.
type Scheduler uint8

// The available schedulers. SchedWheel is the default; SchedHeap is the
// legacy binary heap, kept as a differential-testing fallback so the
// wheel's ordering can always be checked against a second implementation.
const (
	SchedWheel Scheduler = iota
	SchedHeap
)

// Name returns the scheduler's name ("wheel" or "heap") — the sched
// label on repro_sim_events_total.
func (s Scheduler) Name() string {
	if s == SchedHeap {
		return "heap"
	}
	return "wheel"
}

// XTrafficMode selects how a bottleneck's phantom cross-traffic
// advances: lazily replayed in an arithmetic catch-up loop (the
// default), or as one scheduler event per phantom serialization
// boundary (the legacy path, kept as a differential oracle). Both modes
// drive the AQM through the identical per-packet decision sequence and
// PRNG draw order, so campaign datasets are byte-identical either way —
// the property cmd/determinism's grid verifies.
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
type Sim struct {
	now time.Duration
	// wheel is the default O(1) scheduler; nil selects the heap fallback.
	wheel *timingWheel
	// heap is the fallback pending-event priority queue: pointer-free
	// entries ordered by (at, seq), with idx addressing the body in slab.
	heap []heapEntry
	slab []event
	free []int32 // recycled slab indices
	seq  uint64
	live int // scheduled, not yet fired or cancelled
	rng  *rand.Rand
	// seed is the construction seed; Reset rewinds rng to it.
	seed int64
	// Stats counters, exposed for benchmarks and capacity planning.
	executed uint64

	// xtrafficEvents selects the legacy one-event-per-phantom-boundary
	// transmitter drive (XTrafficEvents); the default is lazy catch-up
	// replay.
	xtrafficEvents bool
	// lazy lists the bottlenecks currently serializing without events;
	// Step replays their boundaries, in exact (time, seq) order, before
	// dispatching any event past them.
	lazy []*bottleneck
	// replayedBoundaries counts phantom serialization boundaries replayed
	// arithmetically instead of dispatched as events; phantomEvents
	// counts the ones that did run as events (events mode, and the CoDel
	// hybrid's foreground-present stretches).
	replayedBoundaries uint64
	phantomEvents      uint64
	// sentinel numbers the lazy drive's foreground-finish events out of
	// band (see sentinelSeq).
	sentinel uint64

	// UserData belongs to the protocol layers above: tcpsim keeps the
	// simulation's connection-shell pool here, shared by every stack on
	// the simulator. Capacity, not state: Reset leaves it alone.
	UserData any
}

// NewSim returns a simulator whose randomness derives from seed, using
// the default timing-wheel scheduler.
func NewSim(seed int64) *Sim { return NewSimSched(seed, SchedWheel) }

// NewSimSched returns a simulator with an explicit scheduler choice. The
// two schedulers fire events in exactly the same order; SchedHeap exists
// so differential tests can prove that.
func NewSimSched(seed int64, sched Scheduler) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed}
	if sched == SchedWheel {
		s.wheel = newTimingWheel()
	}
	return s
}

// Reset returns the simulator to the state NewSimSched produced: clock
// at zero, sequence and sentinel counters rewound, every statistic
// cleared, the PRNG back at the construction seed's stream. Events still
// pending are discarded unexecuted (their wire buffers released). The
// scheduler choice and cross-traffic mode are configuration and stay;
// so does capacity — the event slab and its free list, the heap's and
// the due buffer's backing arrays — which is the point: a reset
// simulator schedules without growing anything (DESIGN.md §9.4).
//
// Slab generations are deliberately not rewound, so a Timer handle
// from before the Reset stays stale instead of cancelling a stranger.
// Reset does not touch the nodes and links built on the simulator;
// Network.Reset does.
func (s *Sim) Reset() {
	for {
		idx, _, ok := s.popNext()
		if !ok {
			break
		}
		s.slab[idx].buf.Release()
		s.recycle(idx)
	}
	if s.wheel != nil {
		s.wheel.reset()
	}
	s.now = 0
	s.seq = 0
	s.sentinel = 0
	s.live = 0
	s.executed = 0
	s.replayedBoundaries = 0
	s.phantomEvents = 0
	for _, bn := range s.lazy {
		bn.lazyIdx = -1
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

// WheelStats reports the timing wheel's internal activity: cascades is
// the number of higher-level slots re-filed into finer levels,
// registerHits the pops served straight from the singleton register
// (the sparse-timeline fast path). Both are zero on the heap
// scheduler. The counters are observability only — plain increments
// with no effect on event order, randomness, or output bytes.
func (s *Sim) WheelStats() (cascades, registerHits uint64) {
	if s.wheel == nil {
		return 0, 0
	}
	return s.wheel.cascades, s.wheel.registerHits
}

// nextSeq hands out the sequence number a scheduled event would have
// received. Lazily-driven bottlenecks consume one per virtual boundary
// — including the boundary that starts a foreground serialization,
// whose finish event carries a sentinel instead — keeping the counter,
// and with it the FIFO tiebreak of every later same-timestamp event, in
// lockstep with the events mode.
func (s *Sim) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// sentinelSeq returns an out-of-band sequence number (top bit set, so
// it can never collide with counter-drawn seqs) for the lazy precise
// drive's foreground-finish events. A sentinel orders the finish after
// every counter-seq event sharing its instant and does not advance the
// shared counter, so scheduling it at enqueue time cannot shift any
// other event's — or virtual boundary's — sequence number.
func (s *Sim) sentinelSeq() uint64 {
	s.sentinel++
	return 1<<63 | s.sentinel
}

// registerLazy adds a bottleneck to the lazily-driven set.
func (s *Sim) registerLazy(bn *bottleneck) {
	if bn.lazyIdx >= 0 {
		return
	}
	bn.lazyIdx = len(s.lazy)
	s.lazy = append(s.lazy, bn)
}

// unregisterLazy removes a bottleneck from the lazily-driven set.
func (s *Sim) unregisterLazy(bn *bottleneck) {
	if bn == nil || bn.lazyIdx < 0 {
		return
	}
	i, last := bn.lazyIdx, len(s.lazy)-1
	s.lazy[i] = s.lazy[last]
	s.lazy[i].lazyIdx = i
	s.lazy[last] = nil
	s.lazy = s.lazy[:last]
	bn.lazyIdx = -1
}

// advanceLazy replays, across every lazily-driven bottleneck, all
// phantom serialization boundaries whose (time, seq) precede the given
// horizon — in exactly the order the events mode would have fired them,
// seq ties included, because each virtual boundary carries the sequence
// number its event would have drawn from the same counter. Step calls
// it with the next event's (at, seq) before dispatching, so every PRNG
// draw a boundary makes lands at the identical position in the shared
// random stream.
func (s *Sim) advanceLazy(at time.Duration, seq uint64) {
	for {
		// Pick the earliest eligible boundary and the runner-up bound.
		// Membership in s.lazy is eligibility: the link registers a
		// bottleneck exactly while a phantom serializes with no event
		// backing it.
		var best *bottleneck
		runnerUp := maxDuration
		for _, bn := range s.lazy {
			if bn.busyUntil > at || (bn.busyUntil == at && bn.virtSeq > seq) {
				continue
			}
			switch {
			case best == nil:
				best = bn
			case bn.busyUntil < best.busyUntil ||
				(bn.busyUntil == best.busyUntil && bn.virtSeq < best.virtSeq):
				if best.busyUntil < runnerUp {
					runnerUp = best.busyUntil
				}
				best = bn
			case bn.busyUntil < runnerUp:
				runnerUp = bn.busyUntil
			}
		}
		if best == nil {
			return
		}
		if runnerUp > at {
			runnerUp = at
		}
		// Replay a run of best's boundaries without rescanning: it stays
		// the front source while its next boundary is strictly earlier
		// than every other's and strictly inside the horizon. virtSeq
		// increases with each new boundary, so a tie at the horizon
		// re-enters the scan above for the exact seq comparison.
		for {
			best.link.replayBoundary(best, best.busyUntil)
			if best.lazyIdx < 0 || best.busyUntil >= runnerUp {
				break
			}
		}
	}
}

// flushLazy drains every lazily-driven bottleneck to quiescence.
// Background arrivals quench a grace period after the last foreground
// packet, so the replay always terminates; Run calls this after the
// event queue empties, leaving queue statistics and discipline state
// exactly where the events mode — whose boundary events drain inside
// Run — leaves them.
func (s *Sim) flushLazy() {
	if len(s.lazy) > 0 {
		s.advanceLazy(maxDuration, ^uint64(0))
	}
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
	t.s.live--
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

// atWithSeq schedules fn at absolute time t carrying a previously
// drawn sequence number instead of a fresh one. The lazily-driven
// transmitter uses it when a foreground arrival converts an in-flight
// virtual boundary into a real event: the boundary already consumed its
// seq when serialization began, exactly where the events mode would
// have, so reusing it keeps same-timestamp ordering identical across
// drive modes.
func (s *Sim) atWithSeq(t time.Duration, seq uint64, fn func()) {
	if fn == nil {
		panic("netsim: nil event function")
	}
	idx := s.scheduleSeq(t, seq)
	s.slab[idx].fn = fn
}

// deliverAfter schedules delivery of a wire buffer to node d from now.
// Delivery is a typed event — no closure, no allocation — and transfers
// the caller's buffer reference to the receiving node.
func (s *Sim) deliverAfter(d time.Duration, node Node, b *packet.Buf, from *Link) {
	if d < 0 {
		d = 0
	}
	idx := s.schedule(s.now + d)
	ev := &s.slab[idx]
	ev.node = node
	ev.buf = b
	ev.link = from
}

// schedule allocates an event body (from the free list when possible)
// and queues it at absolute time t, returning its slab index.
func (s *Sim) schedule(t time.Duration) int32 {
	s.seq++
	return s.scheduleSeq(t, s.seq)
}

// scheduleSeq queues an event with an explicit sequence number —
// schedule's fresh draw, or a lazily-driven boundary's previously
// reserved one.
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
	ev := &s.slab[idx]
	ev.at = t
	ev.seq = seq
	ev.next = -1
	s.live++
	if s.wheel != nil {
		s.wheelInsert(idx, t)
	} else {
		s.heapPush(heapEntry{at: t, seq: seq, idx: idx})
	}
	return idx
}

// recycle clears an event body, bumps its generation (staling Timer
// handles), and returns its slot to the free list.
func (s *Sim) recycle(idx int32) {
	ev := &s.slab[idx]
	ev.gen++
	ev.fn = nil
	ev.node = nil
	ev.buf = nil
	ev.link = nil
	ev.next = -1
	s.free = append(s.free, idx)
}

// dead reports whether an event was cancelled before firing.
func (ev *event) dead() bool { return ev.fn == nil && ev.node == nil }

// popNext removes and returns the earliest pending event (live or
// cancelled) from the active scheduler.
func (s *Sim) popNext() (int32, time.Duration, bool) {
	if s.wheel != nil {
		return s.wheelPop()
	}
	if len(s.heap) == 0 {
		return 0, 0, false
	}
	he := s.heap[0]
	s.heapPopRoot()
	return he.idx, he.at, true
}

// Step executes the next pending event. It reports whether an event ran.
func (s *Sim) Step() bool {
	for {
		idx, at, ok := s.popNext()
		if !ok {
			return false
		}
		ev := &s.slab[idx]
		if ev.dead() { // cancelled
			s.recycle(idx)
			continue
		}
		if len(s.lazy) > 0 {
			// Catch lazily-driven bottlenecks up to this event: every
			// phantom boundary ordered before (at, seq) replays first,
			// so its PRNG draws precede the handler's exactly as the
			// events mode interleaves them. Replay never schedules, so
			// ev stays valid.
			s.advanceLazy(at, ev.seq)
		}
		s.now = at
		s.executed++
		s.live--
		if ev.node != nil {
			node, buf, link := ev.node, ev.buf, ev.link
			s.recycle(idx)
			node.Receive(buf, link)
		} else {
			fn := ev.fn
			s.recycle(idx)
			fn()
		}
		return true
	}
}

// Run drains the event queue, then drains any lazily-driven bottleneck
// background to quiescence — the state an events-mode Run reaches via
// boundary events.
func (s *Sim) Run() {
	for s.Step() {
	}
	s.flushLazy()
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond it remain queued; lazily-
// driven bottleneck boundaries up to the deadline are replayed, exactly
// as the events mode would have fired them.
func (s *Sim) RunUntil(deadline time.Duration) {
	for {
		at, ok := s.peekLive()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if len(s.lazy) > 0 {
		s.advanceLazy(deadline, ^uint64(0))
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peekLive returns the earliest live event time, recycling cancelled
// events it skips over so RunUntil sees true deadlines.
func (s *Sim) peekLive() (time.Duration, bool) {
	if s.wheel != nil {
		return s.wheelPeek()
	}
	for {
		if len(s.heap) == 0 {
			return 0, false
		}
		he := s.heap[0]
		ev := &s.slab[he.idx]
		if !ev.dead() {
			return he.at, true
		}
		s.heapPopRoot()
		s.recycle(he.idx)
	}
}

// heapEntry is a queued event reference: ordering fields inline (no
// pointer chase in comparisons, no write barrier in swaps) plus the
// slab index of the event body.
type heapEntry struct {
	at  time.Duration
	seq uint64 // tiebreak: FIFO within a timestamp
	idx int32
}

// event is a scheduled callback or packet delivery body. Exactly one of
// fn and node is set for a live event: fn-events run arbitrary code,
// node-events hand buf to node (the per-packet fast path, kept
// closure-free so the hot loop does not allocate). Cancellation nils fn
// in place; the schedulers discard dead events lazily.
type event struct {
	gen uint64 // incremented on recycle; stales Timer handles
	fn  func()

	// Typed delivery payload (node != nil selects it).
	node Node
	buf  *packet.Buf
	link *Link

	// Scheduling fields, shared by both schedulers: the event's absolute
	// time and FIFO sequence, plus the timing wheel's intrusive
	// singly-linked slot chain.
	at   time.Duration
	seq  uint64
	next int32
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
