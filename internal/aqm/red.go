package aqm

import (
	"math"
	"math/rand"
	"time"
)

// RED is Random Early Detection (Floyd & Jacobson 1993), the classic
// realisation of the Jain/Ramakrishnan connectionless congestion-
// avoidance bit: it tracks an EWMA of the queue occupancy and, between
// a minimum and maximum threshold, takes a congestion action on a
// randomly uniformized subset of arrivals — CE-marking ECT packets per
// RFC 3168, dropping not-ECT ones. Above the maximum threshold every
// arrival receives the action; a full queue tail-drops regardless of
// ECN, as a real router must.
type RED struct {
	fifo

	// MinTh and MaxTh are the EWMA occupancy thresholds, in packets.
	MinTh, MaxTh float64
	// MaxP is the action probability as the average reaches MaxTh.
	MaxP float64
	// Wq is the EWMA weight applied per arrival.
	Wq float64
	// MeanPktTime is the typical serialization time used to age the
	// average across idle periods (RED's m = idle/MeanPktTime rule).
	MeanPktTime time.Duration

	rng *rand.Rand

	avg       float64
	count     int // arrivals since the last action, for uniformization
	idleSince time.Duration
	idle      bool
}

// NewRED returns a RED queue with the conventional configuration scaled
// to the capacity: thresholds at 1/8 and 1/2 of the buffer, maxP 0.1.
// rng must be the simulation PRNG so marking stays reproducible.
func NewRED(capacity int, rng *rand.Rand) *RED {
	if capacity < 4 {
		capacity = 4
	}
	minTh := float64(capacity) / 8
	if minTh < 2 {
		minTh = 2
	}
	maxTh := float64(capacity) / 2
	if maxTh <= minTh {
		maxTh = minTh * 3
	}
	return &RED{
		fifo:        newFifo(capacity),
		MinTh:       minTh,
		MaxTh:       maxTh,
		MaxP:        0.1,
		Wq:          0.02,
		MeanPktTime: 4 * time.Millisecond,
		rng:         rng,
	}
}

// Name implements Queue.
func (q *RED) Name() string { return "red" }

// ResetTransient implements Queue: clears the EWMA average, the
// uniformization counter and the idle-aging state. A queue left idle
// for long decays to exactly this state (the aging power underflows to
// zero), so the reset canonicalises "long idle" rather than inventing a
// new regime.
func (q *RED) ResetTransient() {
	q.avg = 0
	q.count = 0
	q.idle = false
	q.idleSince = 0
}

// Reset implements Queue.
func (q *RED) Reset() {
	q.ResetTransient()
	q.reset()
}

// Enqueue implements Queue: the accept/mark/drop decision point.
func (q *RED) Enqueue(now time.Duration, p *Packet) bool {
	if q.idle {
		q.age(now)
	}
	full, action, pending := q.arrive()
	if pending {
		action = q.uniformized()
	}
	if full {
		q.tailDrop()
		p.Free()
		return false
	}
	if action && !q.congest(p) {
		p.Free()
		return false // not-ECT: the congestion action was a drop
	}
	q.admit(now, p)
	return true
}

// arrive runs one arrival through the control law — backlog
// observation, the EWMA update, and (below capacity) the action
// decision. Enqueue and EnqueuePhantoms both run exactly this, so the
// entry points cannot drift. It makes no call, so it inlines into both;
// the law's two rare steps are outlined, and the caller runs them
// around it: age first, when the queue has been idle, and uniformized
// when the average lies between the thresholds (pending), to settle
// the action with its PRNG draw.
func (q *RED) arrive() (full, action, pending bool) {
	q.observeArrival()
	q.avg += float64(q.Wq * (float64(q.Len()) - q.avg))

	if q.Len() >= q.Cap() {
		return true, false, false // tail drop territory: no action draw
	}
	switch {
	case q.avg >= q.MaxTh:
		q.count = 0
		return false, true, false
	case q.avg > q.MinTh:
		return false, false, true
	}
	q.count = 0
	return false, false, false
}

// age decays the average across an idle period: the queue was empty,
// so the average decays as if m small packets had passed (RED §11).
func (q *RED) age(now time.Duration) {
	m := float64(now-q.idleSince) / float64(q.MeanPktTime)
	if m > 0 {
		q.avg *= math.Pow(1-q.Wq, m)
	}
	q.idle = false
}

// uniformized settles arrive's pending decision between the
// thresholds: the action probability grows with the average and with
// the arrivals since the last action, and one PRNG draw settles it.
func (q *RED) uniformized() bool {
	q.count++
	pb := q.MaxP * (q.avg - q.MinTh) / (q.MaxTh - q.MinTh)
	var pa float64
	if d := 1 - float64(float64(q.count)*pb); d > 0 {
		pa = pb / d
	} else {
		pa = 1
	}
	if pa >= 1 || (q.rng != nil && q.rng.Float64() < pa) {
		q.count = 0
		return true
	}
	return false
}

// EnqueuePhantoms implements Queue: n phantom arrivals at now, each
// taking the full per-arrival RED decision via the shared arrive law —
// identically to n single Enqueue calls, the property
// TestBatchAdvanceEqualsSingleSteps pins. A phantom is always ECT(0),
// so a congestion action is always a mark, never a wire rewrite or a
// drop, and admission is a tuple entry.
func (q *RED) EnqueuePhantoms(now time.Duration, size, n int) int {
	if q.idle && n > 0 {
		q.age(now) // nothing dequeues between the arrivals: only the first can find the queue idle
	}
	admitted, marked := 0, 0
	for i := 0; i < n; i++ {
		full, action, pending := q.arrive()
		if pending {
			action = q.uniformized()
		}
		if full {
			continue // a tail drop, counted below
		}
		if action {
			marked++
		}
		q.push(nil, size, now)
		admitted++
	}
	// admitPhantom's and tailDrop's counts, once for the batch.
	q.stats.Enqueued += uint64(admitted)
	q.stats.CEMarked += uint64(marked)
	q.stats.TailDropped += uint64(n - admitted)
	return admitted
}

// Boundary implements Queue: the n phantom arrivals, then the dequeue,
// which leaves the queue idle — its average aging from now on — when
// it takes the last packet. Dequeue is a Boundary with no arrivals.
func (q *RED) Boundary(now time.Duration, size, n int) (int, *Packet, bool) {
	admitted := 0
	if n > 0 {
		admitted = q.EnqueuePhantoms(now, size, n)
	}
	p, ok := q.pop(now)
	if ok && q.Len() == 0 {
		q.idle = true
		q.idleSince = now
	}
	return admitted, p, ok
}

// DropsAtDequeue implements Queue: RED decides at enqueue only.
func (q *RED) DropsAtDequeue() bool { return false }

// Dequeue implements Queue.
func (q *RED) Dequeue(now time.Duration) (*Packet, bool) {
	_, p, ok := q.Boundary(now, 0, 0)
	return p, ok
}
