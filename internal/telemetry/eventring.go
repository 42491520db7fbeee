package telemetry

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The event ring is the flight-recorder half of the package: a fixed-size
// ring of recent lifecycle events (job queued → running → done, shard
// start/finish) that writers append to without locks and readers
// snapshot without stopping the writers.
//
// Concurrency protocol (a per-slot seqlock over a Vyukov-style
// ticketed ring):
//
//   - A writer claims a ticket t with one atomic add on head. Ticket t
//     owns slot t % size for its lap.
//   - Before touching the slot it waits for the previous lap's writer
//     to have published (ver == t-size+1) — in practice never, since
//     the ring is orders of magnitude larger than the writer count —
//     then stamps ver = t (odd state: "writing"), stores the fields,
//     and publishes ver = t+1.
//   - A reader snapshots by walking the last size tickets: load ver,
//     skip the slot unless ver == t+1, copy the fields, re-check ver.
//     An overwriting writer stamps ver = t' before touching fields, so
//     a torn copy can never pass the re-check.
//
// Every slot field is an atomic, so the protocol is exactly as written
// — no benign-data-race hand-waving, and the -race tests hammer it.
// Append stores only word-sized values (string pointers, not strings),
// so appending allocates nothing; callers pass *string for the
// identity fields, pointing at strings that already live on the heap
// (a job's ID, an interned vantage name).

// EventKind classifies a ring event.
type EventKind uint32

// The event kinds, covering the control plane's job and shard
// lifecycle.
const (
	EventNone EventKind = iota
	EventJobQueued
	EventJobRunning
	EventJobDone
	EventJobFailed
	EventJobCacheHit
	EventJobJoined
	EventShardDone
	EventShardLeased
	EventLeaseExpired
)

var eventKindNames = [...]string{
	EventNone:         "none",
	EventJobQueued:    "queued",
	EventJobRunning:   "running",
	EventJobDone:      "done",
	EventJobFailed:    "failed",
	EventJobCacheHit:  "cache-hit",
	EventJobJoined:    "joined",
	EventShardDone:    "shard-done",
	EventShardLeased:  "shard-leased",
	EventLeaseExpired: "lease-expired",
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one recorded lifecycle transition, as read back from a
// snapshot.
type Event struct {
	// Seq is the ring-wide ticket: a strictly increasing append
	// index, so consumers can order and dedupe across snapshots.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	// Job is the owning job's ID; empty for events outside any job.
	Job string `json:"job,omitempty"`
	// Shard and Slice identify the (vantage, slice) unit for shard
	// events; both are -1 on job-level events.
	Shard int `json:"shard,omitempty"`
	Slice int `json:"slice,omitempty"`
	// Detail carries the event's free-form annotation: the vantage name
	// on shard events, the error on failures.
	Detail string `json:"detail,omitempty"`
}

type ringSlot struct {
	ver    atomic.Uint64
	wall   atomic.Int64
	kind   atomic.Uint32
	shard  atomic.Int32
	slice  atomic.Int32
	job    atomic.Pointer[string]
	detail atomic.Pointer[string]
}

// EventRing is the lock-free ring buffer. Create with NewEventRing.
type EventRing struct {
	slots []ringSlot
	mask  uint64
	head  atomic.Uint64
}

// NewEventRing returns a ring retaining the most recent size events
// (rounded up to a power of two, minimum 64).
func NewEventRing(size int) *EventRing {
	n := 64
	for n < size {
		n <<= 1
	}
	return &EventRing{slots: make([]ringSlot, n), mask: uint64(n - 1)}
}

// Cap returns the ring's retention capacity in events.
func (j *EventRing) Cap() int { return len(j.slots) }

// Len returns the number of events appended so far (not the number
// retained).
func (j *EventRing) Len() uint64 { return j.head.Load() }

// Append records one event. job and detail may be nil; when non-nil
// they must point at strings that outlive the ring entry (a field
// of a live object, a package constant — not a loop variable about to
// be reused). Append performs no allocation and takes no lock.
func (j *EventRing) Append(kind EventKind, job, detail *string, shard, slice int32) {
	t := j.head.Add(1) - 1
	sl := &j.slots[t&j.mask]
	// Wait out the previous lap's writer (ver must have reached its
	// published value t-cap+1 before this lap may begin). With a
	// 4096-slot ring and handfuls of writers this never spins; it
	// exists so a lapped slow writer cannot interleave stores with
	// ours.
	if t >= uint64(len(j.slots)) {
		want := t - uint64(len(j.slots)) + 1
		for sl.ver.Load() != want {
			runtime.Gosched() // previous lap's writer is mid-append
		}
	}
	sl.ver.Store(t) // "writing" stamp: readers treat != t+1 as in-flight
	sl.wall.Store(time.Now().UnixNano())
	sl.kind.Store(uint32(kind))
	sl.shard.Store(shard)
	sl.slice.Store(slice)
	sl.job.Store(job)
	sl.detail.Store(detail)
	sl.ver.Store(t + 1)
}

// Snapshot returns the retained events in append order (oldest first).
// Events being overwritten or mid-append during the walk are skipped;
// everything returned is internally consistent.
func (j *EventRing) Snapshot() []Event {
	head := j.head.Load()
	size := uint64(len(j.slots))
	start := uint64(0)
	if head > size {
		start = head - size
	}
	out := make([]Event, 0, head-start)
	for t := start; t < head; t++ {
		sl := &j.slots[t&j.mask]
		if sl.ver.Load() != t+1 {
			continue // mid-append, or already lapped
		}
		ev := Event{
			Seq:   t,
			Time:  time.Unix(0, sl.wall.Load()),
			Kind:  EventKind(sl.kind.Load()).String(),
			Shard: int(sl.shard.Load()),
			Slice: int(sl.slice.Load()),
		}
		if p := sl.job.Load(); p != nil {
			ev.Job = *p
		}
		if p := sl.detail.Load(); p != nil {
			ev.Detail = *p
		}
		// The fields above were copied; if the version moved, a lapping
		// writer touched the slot mid-copy and the copy is torn.
		if sl.ver.Load() != t+1 {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// JobEvents returns the retained events for one job ID, oldest first.
func (j *EventRing) JobEvents(id string) []Event {
	all := j.Snapshot()
	out := all[:0]
	for _, ev := range all {
		if ev.Job == id {
			out = append(out, ev)
		}
	}
	return out
}
