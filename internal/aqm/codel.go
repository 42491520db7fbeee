package aqm

import (
	"math"
	"time"
)

// CoDel is Controlled Delay (Nichols & Jacobson 2012): instead of
// watching occupancy it watches how long packets actually wait. When
// the head-of-queue sojourn time has exceeded Target for at least one
// Interval, it enters dropping state and takes congestion actions at a
// rate that increases with the square root of the action count. As
// everywhere in this substrate, the action is CE-mark for ECT packets
// and drop for not-ECT ones.
type CoDel struct {
	fifo

	// Target is the acceptable standing queue delay (default 5ms).
	Target time.Duration
	// Interval is the sliding window over which the delay must stay
	// above Target before acting (default 100ms).
	Interval time.Duration

	firstAbove time.Duration // when sojourn first exceeded Target; 0 = not above
	dropNext   time.Duration // next scheduled action while dropping
	count      int           // actions in the current dropping state
	dropping   bool
}

// NewCoDel returns a CoDel queue with the published default control
// constants and a hard capacity of capacity packets.
func NewCoDel(capacity int) *CoDel {
	return &CoDel{
		fifo:     newFifo(capacity),
		Target:   5 * time.Millisecond,
		Interval: 100 * time.Millisecond,
	}
}

// Name implements Queue.
func (q *CoDel) Name() string { return "codel" }

// ResetTransient implements Queue: leaves dropping state and forgets the
// above-target window, as an emptied queue does on its own.
func (q *CoDel) ResetTransient() {
	q.firstAbove = 0
	q.dropNext = 0
	q.count = 0
	q.dropping = false
}

// Reset implements Queue.
func (q *CoDel) Reset() {
	q.ResetTransient()
	q.reset()
}

// Enqueue implements Queue: CoDel admits everything short of a full
// buffer; its intelligence runs at dequeue.
func (q *CoDel) Enqueue(now time.Duration, p *Packet) bool {
	q.observeArrival()
	if q.Len() >= q.Cap() {
		q.tailDrop()
		p.Free()
		return false
	}
	q.admit(now, p)
	return true
}

// EnqueuePhantoms implements Queue: CoDel admits everything short of a
// full buffer — its intelligence runs at dequeue — so the enqueue law
// is the shared tail-drop batch loop.
func (q *CoDel) EnqueuePhantoms(now time.Duration, size, n int) int {
	return q.enqueuePhantomsTailDrop(now, size, n)
}

// DropsAtDequeue implements Queue: the control law may discard not-ECT
// heads inside Dequeue, so a queued packet's serialization time is not
// knowable at enqueue.
func (q *CoDel) DropsAtDequeue() bool { return true }

// Dequeue implements Queue: the control law runs here, on the packet
// that has waited longest.
func (q *CoDel) Dequeue(now time.Duration) (*Packet, bool) {
	p, ok := q.pop(now)
	if !ok {
		q.firstAbove = 0
		q.dropping = false
		return nil, false
	}
	sojourn := now - p.Arrived

	if sojourn < q.Target || q.Len() == 0 {
		// Below target (or queue emptied): leave dropping state.
		q.firstAbove = 0
		q.dropping = false
		return p, true
	}

	if q.firstAbove == 0 {
		q.firstAbove = now + q.Interval
		return p, true
	}
	if !q.dropping {
		if now >= q.firstAbove {
			q.dropping = true
			q.count = 1
			q.dropNext = now + q.controlInterval()
			if !q.congest(p) {
				q.headDropped(p)
				p.Free()
				return q.Dequeue(now) // not-ECT head dropped; try the next
			}
		}
		return p, true
	}
	if now >= q.dropNext {
		q.count++
		q.dropNext = now + q.controlInterval()
		if !q.congest(p) {
			q.headDropped(p)
			p.Free()
			return q.Dequeue(now)
		}
	}
	return p, true
}

// controlInterval is Interval/sqrt(count), the CoDel pacing law.
func (q *CoDel) controlInterval() time.Duration {
	return time.Duration(float64(q.Interval) / math.Sqrt(float64(q.count)))
}
