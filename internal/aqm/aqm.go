// Package aqm implements the queueing disciplines of the congestion
// substrate: bounded queues that build when offered load exceeds a
// link's serialization rate, managed by disciplines that either drop
// from the tail (DropTail) or signal congestion early (RED, CoDel).
//
// This is the machinery the paper's subject — ECN — exists to drive:
// an AQM-managed router marks ECN-capable packets CE instead of
// dropping them (RFC 3168 §5), following the connectionless
// congestion-avoidance lineage of Jain & Ramakrishnan (DEC-TR-506).
// Packets that are not ECT receive the legacy signal: loss.
//
// A Queue hangs off a netsim.Link direction with a finite
// serialization rate. The link's transmitter drives the interface from
// the event loop: Enqueue on packet arrival (where RED takes its
// accept/mark/drop decision), Dequeue at each serialization boundary
// (where CoDel takes its head-of-queue decision). All randomness (RED's
// uniformized marking draw) comes from the simulation PRNG handed to
// the constructor, so campaigns over congested topologies stay
// byte-reproducible and shard-deterministic.
package aqm

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// Packet is one queued datagram. On the simulator's hot path, shells
// come from a process-wide pool (NewPacket) and carry a pooled wire
// buffer; queues own the packets they hold and release both shell and
// buffer on every drop they perform. Literal Packets (tests, tools)
// work identically but are never recycled.
type Packet struct {
	// Wire is the serialized IPv4 datagram — a view into the pooled
	// buffer for packets built by NewPacket. It is nil for phantom
	// background packets, which model cross-traffic load (they consume
	// queue space and serialization time) without deliverable bytes.
	Wire []byte
	// Size is the on-wire length in bytes (len(Wire) for real packets,
	// the modelled size for phantoms).
	Size int
	// Arrived is when the packet entered the queue; set by Enqueue and
	// used for sojourn-time accounting and CoDel's control law.
	Arrived time.Duration

	buf    *packet.Buf // owning buffer reference; nil for phantoms/literals
	pooled bool        // shell came from pktPool and returns to it
}

// Phantom reports whether the packet is background load rather than a
// deliverable datagram.
func (p *Packet) Phantom() bool { return p.Wire == nil }

var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket wraps a wire buffer as a queue packet, taking ownership of
// the caller's buffer reference. The shell comes from a pool; whoever
// ends the packet's life calls Free (drop paths) or TakeBuf
// (delivery), returning it.
func NewPacket(bf *packet.Buf) *Packet {
	p := pktPool.Get().(*Packet)
	p.Wire = bf.Bytes()
	p.Size = bf.Len()
	p.Arrived = 0
	p.buf = bf
	p.pooled = true
	return p
}

// Free ends the packet's life on a drop path: the wire buffer (if any)
// is released and a pooled shell returns to the pool. Freeing a
// literal Packet (or a queue's reusable phantom shell) only detaches
// its buffer reference.
func (p *Packet) Free() {
	p.buf.Release()
	p.buf = nil
	p.Wire = nil
	if p.pooled {
		p.pooled = false
		pktPool.Put(p)
	}
}

// TakeBuf detaches and returns the packet's wire buffer — ownership of
// the buffer reference moves to the caller — and recycles a pooled
// shell. It returns nil for phantoms and literal Packets that never
// carried a buffer.
func (p *Packet) TakeBuf() *packet.Buf {
	bf := p.buf
	p.buf = nil
	p.Wire = nil
	if p.pooled {
		p.pooled = false
		pktPool.Put(p)
	}
	return bf
}

// ECN returns the packet's codepoint. Phantom background packets are
// modelled as ECT(0) cross traffic, so congestion actions mark rather
// than drop them — background load stays constant under marking, as an
// ECN-capable aggregate's would.
func (p *Packet) ECN() ecn.Codepoint {
	if p.Wire == nil {
		return ecn.ECT0
	}
	cp, err := packet.WireECN(p.Wire)
	if err != nil {
		return ecn.NotECT
	}
	return cp
}

// markCE rewrites the packet's ECN field to CE (repairing the IPv4
// checksum for real packets). It reports whether the mark took.
func (p *Packet) markCE() bool {
	if p.Wire == nil {
		return true
	}
	return packet.SetWireECN(p.Wire, ecn.CE) == nil
}

// Stats counts a queue's lifetime activity. The Wire* fields cover only
// real (deliverable) packets — they are the ground truth the CE-mark
// report compares against receiver-side observations, excluding the
// phantom background the receiver can never see.
type Stats struct {
	Enqueued uint64 // packets admitted, including phantoms
	Dequeued uint64 // packets handed to the transmitter

	CEMarked      uint64 // congestion actions resolved by marking ECT → CE
	NotECTDropped uint64 // congestion actions resolved by dropping not-ECT
	TailDropped   uint64 // drops because the queue was full

	WireEnqueued      uint64 // real packets admitted
	WireECT           uint64 // real ECT-capable packets admitted (incl. CE-marked)
	WireCEMarked      uint64 // real packets marked CE here
	WireNotECTDropped uint64 // real not-ECT packets dropped by congestion action

	// SumBacklog accumulates the backlog (in packets) each arriving
	// packet found ahead of it; divided by Offered it is the mean
	// occupancy an arrival observed — the ground-truth congestion the
	// "verbose mode" CE-ratio estimator is checked against.
	SumBacklog uint64
	// SumSojourn accumulates queueing delay, measured at dequeue.
	SumSojourn time.Duration
}

// Offered is the total number of packets presented to the queue.
func (s Stats) Offered() uint64 {
	return s.Enqueued + s.NotECTDropped + s.TailDropped
}

// AvgBacklog is the mean backlog (packets) seen by an arriving packet.
func (s Stats) AvgBacklog() float64 {
	if n := s.Offered(); n > 0 {
		return float64(s.SumBacklog) / float64(n)
	}
	return 0
}

// Queue is a bounded packet queue with an attached management
// discipline. The owning link calls Enqueue when a foreground packet
// arrives, Boundary at each serialization boundary (the background
// that arrived while the previous packet serialized, then the next
// dequeue), and Dequeue when an idle transmitter starts; all receive
// the current virtual time. Enqueue reports false when the discipline
// dropped the packet. Dequeue reports false when nothing is queued (a
// discipline may internally drop head packets before returning the
// survivor).
//
// Ownership: Enqueue always takes the packet — a discipline that drops
// (tail drop, congestion drop, or a dequeue-time head drop) Frees the
// packet itself, so an Enqueue returning false means the packet is
// already gone. Dequeue hands ownership of the returned packet to the
// caller.
type Queue interface {
	// Name identifies the discipline ("droptail", "red", "codel").
	Name() string
	// Cap is the queue capacity in packets.
	Cap() int
	// Len is the current backlog in packets.
	Len() int
	Enqueue(now time.Duration, p *Packet) bool
	Dequeue(now time.Duration) (*Packet, bool)
	// EnqueuePhantoms is the batch-advance entry point for background
	// cross-traffic: it offers n phantom packets of the given size at
	// time now, taking exactly the same per-packet decision sequence —
	// EWMA updates, uniformization counting, PRNG draws, tail drops — as
	// n individual Enqueue calls of a phantom packet, so a replayed burst
	// of arrivals is indistinguishable, state- and stream-wise, from the
	// event-driven equivalent. The transmitter offers the background
	// through it when a foreground packet arrives between boundaries.
	EnqueuePhantoms(now time.Duration, size, n int)
	// Boundary is the transmitter's serialization-boundary step in one
	// call: exactly EnqueuePhantoms(now, size, n) followed by
	// Dequeue(now) — same decisions, same PRNG draws, same Stats —
	// returning the dequeued packet. A phantom comes back as the queue's
	// reusable shell, valid until the next Boundary or Dequeue.
	Boundary(now time.Duration, size, n int) (next *Packet, ok bool)
	Stats() Stats
	// ResetTransient returns the discipline's control state (EWMA
	// averages, uniformization counters, dropping-state machines) to its
	// initial value, as a long-idle queue converges to anyway. Queued
	// packets and lifetime Stats are untouched. The campaign engine
	// calls it at trace boundaries so a trace's marking behaviour
	// depends only on the trace's own traffic, never on which traces
	// happened to share the simulator — the invariant that lets traces
	// be regrouped into shards without changing a byte of output.
	ResetTransient()
	// Reset returns the queue to its just-constructed state: control
	// state as ResetTransient leaves it, lifetime Stats zeroed, and any
	// packet still queued freed. Only the backing array's capacity
	// survives. A world that is reused for another shard resets its
	// queues this way (topology.World.Reset, DESIGN.md §9.4).
	Reset()
}

// New constructs a discipline by name: "droptail", "red", "codel". An
// empty name selects RED, the substrate default. capacity is in
// packets; rng must be the simulation PRNG (RED draws its marking
// uniformization from it) and may be nil for deterministic disciplines.
func New(name string, capacity int, rng *rand.Rand) (Queue, error) {
	switch name {
	case "droptail":
		return NewDropTail(capacity), nil
	case "", "red":
		return NewRED(capacity, rng), nil
	case "codel":
		return NewCoDel(capacity), nil
	default:
		return nil, fmt.Errorf("aqm: unknown discipline %q (want droptail, red or codel)", name)
	}
}

// entry is one queued slot. Foreground packets are retained through
// pkt; phantom background packets are stored as pure (size, arrival-
// time) tuples — no shell, no pointer — so a congested campaign can
// cycle millions of background packets through a queue without touching
// the allocator, the GC's pointer maps, or any pool.
type entry struct {
	pkt     *Packet // nil for phantom background entries
	size    int32
	arrived time.Duration
}

// fifo is the bounded FIFO buffer shared by every discipline. It keeps
// the Stats bookkeeping in one place; disciplines layer their
// congestion actions on top. The entries live in a ring of exactly the
// queue's capacity, allocated once: every discipline refuses an
// arrival at a full queue before admitting it, so admission never
// grows the ring and dequeue never moves an entry.
type fifo struct {
	ring []entry // len(ring) is the capacity in packets
	head int     // index of the oldest entry
	n    int     // entries queued
	// stats holds the lifetime counters except Dequeued, which Stats
	// derives: every admitted packet is either still queued or was
	// handed out (a head drop takes back both its Enqueued and its
	// Dequeued), so Dequeued = Enqueued − Len at all times.
	stats Stats
	// egress is the queue's reusable phantom shell: pop serves a
	// phantom through it — the transmitter holds at most one dequeued
	// phantom at a time, completing its serialization before the next
	// pop.
	egress Packet
}

func newFifo(capacity int) fifo {
	if capacity < 1 {
		capacity = 1
	}
	return fifo{ring: make([]entry, capacity)}
}

// reset empties the buffer and zeroes the lifetime Stats, keeping the
// ring. Queued foreground packets are freed; a drained queue has none.
func (f *fifo) reset() {
	for i := 0; i < f.n; i++ {
		if p := f.ring[f.slot(i)].pkt; p != nil {
			p.Free()
		}
	}
	clear(f.ring)
	f.head = 0
	f.n = 0
	f.stats = Stats{}
	f.egress = Packet{}
}

func (f *fifo) Cap() int { return len(f.ring) }
func (f *fifo) Len() int { return f.n }

func (f *fifo) Stats() Stats {
	s := f.stats
	s.Dequeued = s.Enqueued - uint64(f.n)
	return s
}

// slot is the ring index of the i-th queued entry (0 = the head).
func (f *fifo) slot(i int) int {
	if i += f.head; i >= len(f.ring) {
		i -= len(f.ring)
	}
	return i
}

// push appends an entry behind the tail: a foreground packet, or a
// phantom's tuple (p nil). The caller has checked that the queue is
// below capacity. A free slot's pkt is always nil — pop and reset clear
// it — so a phantom's push stores no pointer and pays no write barrier.
func (f *fifo) push(p *Packet, size int, now time.Duration) {
	e := &f.ring[f.slot(f.n)]
	if p != nil {
		e.pkt = p
	}
	e.size = int32(size)
	e.arrived = now
	f.n++
}

// admit records and appends an accepted packet. Callers have already
// taken the discipline's decision. A phantom is admitted as a tuple
// entry and its shell freed; a foreground packet is retained.
func (f *fifo) admit(now time.Duration, p *Packet) {
	f.stats.Enqueued++
	if !p.Phantom() {
		p.Arrived = now
		f.stats.WireEnqueued++
		if p.ECN().IsECT() {
			f.stats.WireECT++
		}
		f.push(p, p.Size, now)
		return
	}
	size := p.Size
	p.Free() // the tuple entry replaces the shell
	f.push(nil, size, now)
}

// pop removes the head packet, maintaining sojourn accounting. Phantom
// entries are served through the reusable egress shell.
func (f *fifo) pop(now time.Duration) (*Packet, bool) {
	if f.n == 0 {
		return nil, false
	}
	e := &f.ring[f.head]
	f.stats.SumSojourn += now - e.arrived
	p := e.pkt
	if p != nil {
		e.pkt = nil // the slot keeps no foreground packet alive
	} else {
		// Serve the phantom through the reusable egress shell. Wire and
		// buf are permanently nil on it (Free never populates them), so
		// only the tuple fields need refreshing.
		p = &f.egress
		p.Size = int(e.size)
		p.Arrived = e.arrived
	}
	if f.head++; f.head == len(f.ring) {
		f.head = 0
	}
	f.n--
	return p, true
}

// observeArrival records the backlog an arriving packet found.
func (f *fifo) observeArrival() {
	f.stats.SumBacklog += uint64(f.Len())
}

// admitPhantom appends a phantom tuple entry, with exactly admit's
// bookkeeping for a phantom packet.
func (f *fifo) admitPhantom(now time.Duration, size int) {
	f.stats.Enqueued++
	f.push(nil, size, now)
}

// enqueuePhantomsTailDrop is the native batch loop for disciplines
// whose enqueue law is pure tail-drop (DropTail, CoDel — their control
// intelligence lives elsewhere): observe, drop when full, admit a
// tuple entry otherwise.
func (f *fifo) enqueuePhantomsTailDrop(now time.Duration, size, n int) {
	for i := 0; i < n; i++ {
		f.observeArrival()
		if f.Len() >= f.Cap() {
			f.tailDrop()
			continue
		}
		f.admitPhantom(now, size)
	}
}

// congest applies the RFC 3168 congestion action to p: ECT-capable
// packets are CE-marked (and survive), not-ECT packets take the legacy
// signal and are dropped. It reports whether the packet survived.
func (f *fifo) congest(p *Packet) bool {
	if cp := p.ECN(); cp.IsECT() {
		if cp != ecn.CE && p.markCE() {
			f.stats.CEMarked++
			if !p.Phantom() {
				f.stats.WireCEMarked++
			}
		}
		return true
	}
	f.stats.NotECTDropped++
	if !p.Phantom() {
		f.stats.WireNotECTDropped++
	}
	return false
}

// tailDrop records a full-queue drop.
func (f *fifo) tailDrop() {
	f.stats.TailDropped++
}

// headDropped compensates the counters when a discipline discards a
// packet it had previously admitted (CoDel's dequeue-time drop): the
// packet must count exactly once in Offered — as the congestion drop
// congest() just recorded — and not as Dequeued, which means "handed
// to the transmitter".
func (f *fifo) headDropped(p *Packet) {
	f.stats.Enqueued--
	if !p.Phantom() {
		f.stats.WireEnqueued--
	}
}
