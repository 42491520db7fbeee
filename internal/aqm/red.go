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

// Avg exposes the current EWMA occupancy (for tests and reports).
func (q *RED) Avg() float64 { return q.avg }

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
	full, action := q.arrive(now)
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

// arrive runs the per-arrival control law — backlog observation, idle
// aging, the EWMA update, and (below capacity) the uniformized action
// decision with its PRNG draw. Both Enqueue and EnqueuePhantoms run
// exactly this, so the two entry points cannot drift.
func (q *RED) arrive(now time.Duration) (full, action bool) {
	q.observeArrival()

	// Age the average across an idle period: the queue was empty, so
	// the average decays as if m small packets had passed (RED §11).
	if q.idle {
		m := float64(now-q.idleSince) / float64(q.MeanPktTime)
		if m > 0 {
			q.avg *= math.Pow(1-q.Wq, m)
		}
		q.idle = false
	}
	q.avg += q.Wq * (float64(q.Len()) - q.avg)

	if q.Len() >= q.Cap() {
		return true, false // tail drop territory: no action draw
	}

	switch {
	case q.avg >= q.MaxTh:
		action = true
		q.count = 0
	case q.avg > q.MinTh:
		q.count++
		pb := q.MaxP * (q.avg - q.MinTh) / (q.MaxTh - q.MinTh)
		var pa float64
		if d := 1 - float64(q.count)*pb; d > 0 {
			pa = pb / d
		} else {
			pa = 1
		}
		if pa >= 1 || (q.rng != nil && q.rng.Float64() < pa) {
			action = true
			q.count = 0
		}
	default:
		q.count = 0
	}
	return false, action
}

// EnqueuePhantoms implements Queue: n phantom arrivals at now, each
// taking the full per-arrival RED decision via the shared arrive law —
// identically to n single Enqueue calls, the property
// TestBatchAdvanceEqualsSingleSteps pins. A phantom is always ECT(0),
// so a congestion action is always a mark, never a wire rewrite or a
// drop, and admission is a tuple entry.
func (q *RED) EnqueuePhantoms(now time.Duration, size, n int) int {
	admitted := 0
	for i := 0; i < n; i++ {
		full, action := q.arrive(now)
		if full {
			q.tailDrop()
			continue
		}
		if action {
			q.stats.CEMarked++
		}
		q.admitPhantom(now, size)
		admitted++
	}
	return admitted
}

// DropsAtDequeue implements Queue: RED decides at enqueue only.
func (q *RED) DropsAtDequeue() bool { return false }

// Dequeue implements Queue.
func (q *RED) Dequeue(now time.Duration) (*Packet, bool) {
	p, ok := q.pop(now)
	if ok && q.Len() == 0 {
		q.idle = true
		q.idleSince = now
	}
	return p, ok
}
