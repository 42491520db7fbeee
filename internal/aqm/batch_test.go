package aqm

import (
	"math/rand"
	"testing"
	"time"
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

// TestBatchAdvanceEqualsSingleSteps is the batch-advance entry point's
// defining property: EnqueuePhantoms(now, size, n) leaves a queue —
// occupancy, stats, RED's EWMA/uniformization state, CoDel's interval
// state, and the PRNG stream position — exactly where n individual
// Enqueue calls of a phantom packet leave it, under a randomized schedule of
// arrival bursts, idle gaps and partial drains.
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
			for seed := int64(0); seed < 5; seed++ {
				rngA := rand.New(rand.NewSource(100 + seed))
				rngB := rand.New(rand.NewSource(100 + seed))
				batch := d.make(rngA)
				single := d.make(rngB)

				plan := rand.New(rand.NewSource(9000 + seed))
				now := time.Duration(0)
				for step := 0; step < 400; step++ {
					switch plan.Intn(4) {
					case 0, 1: // arrival burst at one instant
						n := plan.Intn(6)
						a := batch.EnqueuePhantoms(now, 512, n)
						b := 0
						for i := 0; i < n; i++ {
							if single.Enqueue(now, &Packet{Size: 512}) {
								b++
							}
						}
						if a != b {
							t.Fatalf("seed %d step %d: admitted %d via batch, %d via singles", seed, step, a, b)
						}
					case 2: // drain some, advancing the clock per dequeue
						for i := plan.Intn(4); i >= 0; i-- {
							pa, oka := batch.Dequeue(now)
							pb, okb := single.Dequeue(now)
							if oka != okb {
								t.Fatalf("seed %d step %d: dequeue diverges: %v vs %v", seed, step, oka, okb)
							}
							if oka && (pa.Size != pb.Size || pa.Arrived != pb.Arrived) {
								t.Fatalf("seed %d step %d: dequeued (%d,%v) vs (%d,%v)",
									seed, step, pa.Size, pa.Arrived, pb.Size, pb.Arrived)
							}
							if oka {
								pa.Free()
								pb.Free()
							}
							now += time.Duration(plan.Intn(5000)) * time.Microsecond
						}
					case 3: // idle gap (exercises RED's idle aging on re-arrival)
						now += time.Duration(plan.Intn(200)) * time.Millisecond
					}
					now += time.Duration(plan.Intn(2000)) * time.Microsecond
				}

				diffState(t, d.name, stateOf(t, batch), stateOf(t, single))
				// The PRNG stream position must match too: RED's next draw
				// comes out identical, so downstream consumers of a shared
				// simulation PRNG see an unshifted stream.
				if a, b := rngA.Float64(), rngB.Float64(); a != b {
					t.Errorf("seed %d: PRNG stream position diverged: %v vs %v", seed, a, b)
				}
			}
		})
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
		if a, b := native.EnqueuePhantoms(now, 512, n), enqueuePhantoms(generic, &generic.fifo, now, 512, n); a != b {
			t.Fatalf("step %d: native admitted %d, generic %d", step, a, b)
		}
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
