package aqm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ecn"
)

// stateOf snapshots everything observable about a queue that the lazy
// catch-up replay must keep bit-identical to the event-driven path:
// occupancy, byte backlog, lifetime stats, and the discipline's control
// state.
func stateOf(t *testing.T, q Queue) map[string]any {
	t.Helper()
	s := map[string]any{
		"len":   q.Len(),
		"bytes": q.Bytes(),
		"stats": q.Stats(),
	}
	switch d := q.(type) {
	case *RED:
		s["avg"] = d.avg
		s["count"] = d.count
		s["idle"] = d.idle
		s["idleSince"] = d.idleSince
	case *CoDel:
		s["firstAbove"] = d.firstAbove
		s["dropNext"] = d.dropNext
		s["dropCount"] = d.count
		s["dropping"] = d.dropping
	}
	return s
}

func diffState(t *testing.T, label string, a, b map[string]any) {
	t.Helper()
	for k, va := range a {
		if vb := b[k]; va != vb {
			t.Errorf("%s: %s differs: batch=%v single=%v", label, k, va, vb)
		}
	}
}

// samePacket fails unless a and b — the packets two queues handed out
// for the same dequeue — agree on size, arrival, phantomness and (for
// a real packet) every wire byte, ECN mark included.
func samePacket(t *testing.T, label string, a, b *Packet, oka, okb bool) {
	t.Helper()
	if oka != okb {
		t.Fatalf("%s: dequeue diverges: %v vs %v", label, oka, okb)
	}
	if !oka {
		return
	}
	if a.Size != b.Size || a.Arrived != b.Arrived || a.Phantom() != b.Phantom() || !bytes.Equal(a.Wire, b.Wire) {
		t.Fatalf("%s: dequeued (%d,%v,phantom=%v) vs (%d,%v,phantom=%v)",
			label, a.Size, a.Arrived, a.Phantom(), b.Size, b.Arrived, b.Phantom())
	}
}

// TestBatchAdvanceEqualsSingleSteps is the batch-advance entry points'
// defining property, under a randomized schedule of arrival bursts,
// serialization boundaries, foreground arrivals (ECT(0) and not-ECT),
// idle gaps and partial drains. Three queues run the same schedule:
//
//   - batch advances phantoms with EnqueuePhantoms(now, size, n);
//   - single with n individual Enqueue calls of a phantom packet;
//   - bound takes each serialization boundary — n arrivals, then the
//     dequeue — as one Boundary(now, size, n), where the other two
//     enqueue and then Dequeue(now).
//
// All three must admit the same counts, hand out the same packets
// (size, arrival, phantomness, wire bytes), and end with the same
// occupancy, Stats, RED EWMA/uniformization state, CoDel interval
// state, and PRNG stream position. The schedule must reach RED's idle
// aging, a full queue and a CoDel head drop inside Boundary; the test
// fails if it does not.
func TestBatchAdvanceEqualsSingleSteps(t *testing.T) {
	disciplines := []struct {
		name string
		make func(rng *rand.Rand) Queue
	}{
		{"droptail", func(*rand.Rand) Queue { return NewDropTail(32) }},
		{"red", func(rng *rand.Rand) Queue { return NewRED(32, rng) }},
		{"codel", func(*rand.Rand) Queue { return NewCoDel(32) }},
	}
	for _, d := range disciplines {
		t.Run(d.name, func(t *testing.T) {
			var aged, full, headDrops int
			for seed := int64(0); seed < 5; seed++ {
				rngs := [3]*rand.Rand{}
				var qs [3]Queue
				for i := range qs {
					rngs[i] = rand.New(rand.NewSource(100 + seed))
					qs[i] = d.make(rngs[i])
				}
				batch, single, bound := qs[0], qs[1], qs[2]
				enqueueSingles := func(now time.Duration, n int) {
					for i := 0; i < n; i++ {
						single.Enqueue(now, &Packet{Size: 512})
					}
				}

				plan := rand.New(rand.NewSource(9000 + seed))
				now := time.Duration(0)
				for step := 0; step < 600; step++ {
					label := fmt.Sprintf("seed %d step %d", seed, step)
					switch plan.Intn(6) {
					case 0: // arrival burst at one instant
						n := plan.Intn(6)
						batch.EnqueuePhantoms(now, 512, n)
						enqueueSingles(now, n)
						bound.EnqueuePhantoms(now, 512, n)
						sameAdmissions(t, label, batch, single, bound)
					case 1, 2: // a serialization boundary: arrivals, then the dequeue
						n := plan.Intn(4)
						if red, ok := bound.(*RED); ok && red.idle && n > 0 {
							aged++
						}
						before := bound.Stats()
						batch.EnqueuePhantoms(now, 512, n)
						pa, oka := batch.Dequeue(now)
						enqueueSingles(now, n)
						pb, okb := single.Dequeue(now)
						pc, okc := bound.Boundary(now, 512, n)
						sameAdmissions(t, label, batch, single, bound)
						if bound.Stats().TailDropped > before.TailDropped {
							full++
						}
						if bound.Stats().WireNotECTDropped > before.WireNotECTDropped {
							headDrops++
						}
						samePacket(t, label+" batch/single", pa, pb, oka, okb)
						samePacket(t, label+" batch/Boundary", pa, pc, oka, okc)
						if oka {
							pa.Free()
							pb.Free()
							pc.Free()
						}
					case 3: // a foreground arrival, ECT(0) or not-ECT
						cp := ecn.ECT0
						if plan.Intn(2) == 0 {
							cp = ecn.NotECT
						}
						wire := wirePacket(t, cp)
						var ok [3]bool
						for i, q := range qs {
							w := append([]byte(nil), wire...)
							ok[i] = q.Enqueue(now, &Packet{Wire: w, Size: len(w)})
						}
						if ok[0] != ok[1] || ok[0] != ok[2] {
							t.Fatalf("%s: foreground admission diverges: %v", label, ok)
						}
					case 4: // drain some, advancing the clock per dequeue
						for i := plan.Intn(4); i >= 0; i-- {
							pa, oka := batch.Dequeue(now)
							pb, okb := single.Dequeue(now)
							pc, okc := bound.Dequeue(now)
							samePacket(t, label+" batch/single", pa, pb, oka, okb)
							samePacket(t, label+" batch/bound", pa, pc, oka, okc)
							if oka {
								pa.Free()
								pb.Free()
								pc.Free()
							}
							now += time.Duration(plan.Intn(5000)) * time.Microsecond
						}
					case 5: // idle gap (exercises RED's idle aging on re-arrival)
						now += time.Duration(plan.Intn(200)) * time.Millisecond
					}
					now += time.Duration(plan.Intn(2000)) * time.Microsecond
				}

				diffState(t, d.name+" batch/single", stateOf(t, batch), stateOf(t, single))
				diffState(t, d.name+" batch/Boundary", stateOf(t, batch), stateOf(t, bound))
				// The PRNG stream position must match too: RED's next draw
				// comes out identical, so downstream consumers of a shared
				// simulation PRNG see an unshifted stream.
				if a, b, c := rngs[0].Float64(), rngs[1].Float64(), rngs[2].Float64(); a != b || a != c {
					t.Errorf("seed %d: PRNG stream position diverged: %v vs %v vs %v", seed, a, b, c)
				}
			}
			if full == 0 {
				t.Error("no Boundary met a full queue")
			}
			if d.name == "red" && aged == 0 {
				t.Error("no Boundary aged RED's average across an idle period")
			}
			if d.name == "codel" && headDrops == 0 {
				t.Error("no Boundary head-dropped a not-ECT packet")
			}
		})
	}
}

// sameAdmissions fails unless every queue counts the admissions and
// tail drops the first does.
func sameAdmissions(t *testing.T, label string, qs ...Queue) {
	t.Helper()
	a := qs[0].Stats()
	for _, q := range qs[1:] {
		if b := q.Stats(); a.Enqueued != b.Enqueued || a.TailDropped != b.TailDropped {
			t.Fatalf("%s: %d admitted and %d tail-dropped, against %d and %d",
				label, b.Enqueued, b.TailDropped, a.Enqueued, a.TailDropped)
		}
	}
}

// enqueuePhantoms is the generic definition of the batch advance: a
// plain loop over the discipline's own Enqueue through one reusable
// phantom shell (admit consumes it into a tuple entry). The
// disciplines' native batch loops run the same decision arithmetic
// directly on tuple entries.
func enqueuePhantoms(q Queue, now time.Duration, size, n int) {
	shell := Packet{Size: size}
	for i := 0; i < n; i++ {
		q.Enqueue(now, &shell)
	}
}

// TestBatchAdvanceMatchesGenericFallback pins the native batch loops to
// the generic shell-based definition (enqueuePhantoms): same admissions,
// same state, same draws.
func TestBatchAdvanceMatchesGenericFallback(t *testing.T) {
	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	native := NewRED(24, rngA)
	generic := NewRED(24, rngB)
	now := time.Duration(0)
	for step := 0; step < 300; step++ {
		n := step % 5
		native.EnqueuePhantoms(now, 512, n)
		enqueuePhantoms(generic, now, 512, n)
		sameAdmissions(t, fmt.Sprintf("step %d", step), native, generic)
		if step%3 == 0 {
			pa, oka := native.Dequeue(now)
			pb, okb := generic.Dequeue(now)
			if oka != okb {
				t.Fatalf("step %d: dequeue diverges", step)
			}
			if oka {
				pa.Free()
				pb.Free()
			}
		}
		now += 3 * time.Millisecond
	}
	diffState(t, "red", stateOf(t, native), stateOf(t, generic))
	if a, b := rngA.Float64(), rngB.Float64(); a != b {
		t.Errorf("PRNG stream position diverged: %v vs %v", a, b)
	}
}
