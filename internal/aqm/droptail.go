package aqm

import "time"

// DropTail is the baseline discipline: admit until full, then drop
// arrivals. It never marks CE — the congestion signal it produces is
// loss alone, which is exactly the pre-AQM Internet the paper's
// introduction argues against for interactive media.
type DropTail struct {
	fifo
}

// NewDropTail returns a tail-drop queue holding capacity packets.
func NewDropTail(capacity int) *DropTail {
	return &DropTail{fifo: newFifo(capacity)}
}

// Name implements Queue.
func (q *DropTail) Name() string { return "droptail" }

// ResetTransient implements Queue: DropTail is memoryless.
func (q *DropTail) ResetTransient() {}

// Reset implements Queue.
func (q *DropTail) Reset() { q.reset() }

// Enqueue implements Queue.
func (q *DropTail) Enqueue(now time.Duration, p *Packet) bool {
	q.observeArrival()
	if q.Len() >= q.Cap() {
		q.tailDrop()
		p.Free()
		return false
	}
	q.admit(now, p)
	return true
}

// EnqueuePhantoms implements Queue: DropTail's enqueue law is pure
// tail-drop, shared with CoDel's batch loop.
func (q *DropTail) EnqueuePhantoms(now time.Duration, size, n int) int {
	return q.enqueuePhantomsTailDrop(now, size, n)
}

// Boundary implements Queue: the n phantom arrivals, then the dequeue.
func (q *DropTail) Boundary(now time.Duration, size, n int) (int, *Packet, bool) {
	admitted := 0
	if n > 0 {
		admitted = q.enqueuePhantomsTailDrop(now, size, n)
	}
	p, ok := q.pop(now)
	return admitted, p, ok
}

// DropsAtDequeue implements Queue: DropTail decides at enqueue only.
func (q *DropTail) DropsAtDequeue() bool { return false }

// Dequeue implements Queue.
func (q *DropTail) Dequeue(now time.Duration) (*Packet, bool) {
	return q.pop(now)
}
