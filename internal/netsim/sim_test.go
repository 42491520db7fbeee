package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ecn"
)

// forEachSched runs a subtest against both schedulers: every observable
// Sim behaviour must be identical on the wheel and the heap.
func forEachSched(t *testing.T, f func(t *testing.T, newSim func(seed int64) *Sim)) {
	t.Helper()
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		sched := sched
		t.Run(sched.Name(), func(t *testing.T) {
			f(t, func(seed int64) *Sim { return NewSimSched(seed, sched) })
		})
	}
}

// TestSelectorZeroValues pins what campaign.Config relies on: the zero
// Scheduler and XTrafficMode are the production wheel and lazy drive,
// and the names that label repro_sim_events_total stay put.
func TestSelectorZeroValues(t *testing.T) {
	var sched Scheduler
	var mode XTrafficMode
	if sched != SchedWheel || mode != XTrafficLazy {
		t.Fatalf("zero values = %v, %v; want the wheel and the lazy drive", sched, mode)
	}
	if SchedWheel.Name() != "wheel" || SchedHeap.Name() != "heap" ||
		XTrafficLazy.Name() != "lazy" || XTrafficEvents.Name() != "events" {
		t.Error("selector names changed")
	}
	if NewSim(1).wheel == nil {
		t.Error("default scheduler is not the wheel")
	}
}

func TestSimOrdering(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		var got []int
		s.After(30*time.Millisecond, func() { got = append(got, 3) })
		s.After(10*time.Millisecond, func() { got = append(got, 1) })
		s.After(20*time.Millisecond, func() { got = append(got, 2) })
		s.Run()
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("execution order = %v", got)
		}
		if s.Now() != 30*time.Millisecond {
			t.Errorf("final time = %v", s.Now())
		}
	})
}

func TestSimFIFOWithinTimestamp(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		var got []int
		for i := 0; i < 100; i++ {
			i := i
			s.After(5*time.Millisecond, func() { got = append(got, i) })
		}
		s.Run()
		if !sort.IntsAreSorted(got) {
			t.Error("same-timestamp events must run FIFO")
		}
	})
}

func TestSimNestedScheduling(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		var fired []time.Duration
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
			s.After(time.Second, func() {
				fired = append(fired, s.Now())
			})
		})
		s.Run()
		if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
			t.Errorf("fired = %v", fired)
		}
	})
}

func TestTimerStop(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		ran := false
		tm := s.After(time.Second, func() { ran = true })
		if !tm.Stop() {
			t.Error("Stop should report pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop should report dead timer")
		}
		s.Run()
		if ran {
			t.Error("cancelled timer fired")
		}
		var zeroTimer Timer
		if zeroTimer.Stop() {
			t.Error("zero timer Stop should be false")
		}
	})
}

func TestNegativeDelayClamped(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		ran := false
		s.After(-time.Second, func() { ran = true })
		s.Run()
		if !ran || s.Now() != 0 {
			t.Errorf("negative delay handling: ran=%v now=%v", ran, s.Now())
		}
	})
}

func TestRunUntil(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		var fired []int
		s.After(10*time.Millisecond, func() { fired = append(fired, 1) })
		s.After(30*time.Millisecond, func() { fired = append(fired, 2) })
		s.RunUntil(20 * time.Millisecond)
		if len(fired) != 1 {
			t.Errorf("fired = %v, want only first", fired)
		}
		if s.Now() != 20*time.Millisecond {
			t.Errorf("now = %v, want 20ms", s.Now())
		}
		s.Run()
		if len(fired) != 2 {
			t.Errorf("remaining event lost: %v", fired)
		}
	})
}

// TestRunUntilThenEarlierInsert pins the subtlety the wheel's cursor
// discipline exists for: after RunUntil stops short of a far event, a
// new event scheduled between the deadline and that far event must still
// fire first and in order.
func TestRunUntilThenEarlierInsert(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		var fired []int
		s.After(90*time.Minute, func() { fired = append(fired, 2) })
		s.RunUntil(10 * time.Minute)
		// Insert between the deadline and the pending far event.
		s.At(40*time.Minute, func() { fired = append(fired, 1) })
		s.Run()
		if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
			t.Errorf("fired = %v, want [1 2]", fired)
		}
	})
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		tm := s.After(5*time.Millisecond, func() {})
		tm.Stop()
		s.RunUntil(time.Second)
		if s.Now() != time.Second {
			t.Errorf("now = %v", s.Now())
		}
		if s.Pending() != 0 {
			t.Errorf("pending = %d", s.Pending())
		}
	})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		if s.Step() {
			t.Error("Step on empty queue must be false")
		}
	})
}

func TestAtClampsToPast(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		s.After(time.Second, func() {
			// Scheduling in the past must clamp to now, not rewind the clock.
			s.At(0, func() {
				if s.Now() != time.Second {
					t.Errorf("past event ran at %v", s.Now())
				}
			})
		})
		s.Run()
	})
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for nil fn")
		}
	}()
	NewSim(1).After(0, nil)
}

func TestPendingCountBothSchedulers(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		timers := make([]Timer, 10)
		for i := range timers {
			timers[i] = s.After(time.Duration(i+1)*time.Second, func() {})
		}
		if s.Pending() != 10 {
			t.Fatalf("pending = %d, want 10", s.Pending())
		}
		timers[3].Stop()
		timers[7].Stop()
		if s.Pending() != 8 {
			t.Fatalf("pending after 2 stops = %d, want 8", s.Pending())
		}
		s.Step()
		if s.Pending() != 7 {
			t.Fatalf("pending after a step = %d, want 7", s.Pending())
		}
		s.Run()
		if s.Pending() != 0 {
			t.Fatalf("pending after drain = %d", s.Pending())
		}
	})
}

func TestDeterminism(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		run := func() []time.Duration {
			s := newSim(42)
			var times []time.Duration
			var schedule func(depth int)
			schedule = func(depth int) {
				if depth == 0 {
					return
				}
				d := time.Duration(s.RNG().Intn(1000)) * time.Microsecond
				s.After(d, func() {
					times = append(times, s.Now())
					schedule(depth - 1)
				})
			}
			schedule(50)
			s.Run()
			return times
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
			}
		}
	})
}

// TestFarTimersCascade exercises the wheel across level boundaries: a
// mix of nanosecond-to-multi-day timers must fire in exact time order on
// both schedulers.
func TestFarTimersCascade(t *testing.T) {
	delays := []time.Duration{
		3, 200, 255, 256, 257, 65535, 65536, 70000,
		3 * time.Millisecond, time.Second, 90 * time.Second,
		time.Hour, 27 * time.Hour, 9 * 24 * time.Hour, 200 * 24 * time.Hour,
	}
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		var fired []time.Duration
		for _, d := range delays {
			s.After(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			t.Fatalf("fired %d of %d", len(fired), len(delays))
		}
		sorted := append([]time.Duration(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if fired[i] != sorted[i] {
				t.Fatalf("fire %d at %v, want %v", i, fired[i], sorted[i])
			}
		}
	})
}

// Property: the event heap pops in nondecreasing (at, seq) order for any
// insertion sequence.
func TestHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewSimSched(1, SchedHeap)
		for _, d := range delays {
			s.heapPush(heapEntry{at: time.Duration(d), seq: s.seq, idx: 0})
			s.seq++
		}
		var prev heapEntry
		first := true
		for len(s.heap) > 0 {
			he := s.heap[0]
			s.heapPopRoot()
			if !first && he.less(prev) {
				return false
			}
			prev, first = he, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: wheel and heap fire any random schedule/cancel workload in
// the identical (event id, time) sequence — the differential guarantee
// the campaign's scheduler fallback rests on.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	run := func(sched Scheduler, seed int64) []int {
		s := NewSimSched(1, sched)
		rng := rand.New(rand.NewSource(seed))
		var order []int
		id := 0
		var timers []Timer
		var spawn func(depth int)
		spawn = func(depth int) {
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				me := id
				id++
				// Delays straddle wheel level boundaries, including 0.
				d := time.Duration(rng.Intn(5)) * time.Duration(1<<uint(rng.Intn(20)))
				tm := s.After(d, func() {
					order = append(order, me)
					if depth > 0 {
						spawn(depth - 1)
					}
				})
				timers = append(timers, tm)
			}
			// Cancel a random earlier timer now and then.
			if len(timers) > 0 && rng.Intn(3) == 0 {
				timers[rng.Intn(len(timers))].Stop()
			}
		}
		spawn(6)
		s.Run()
		return order
	}
	for seed := int64(0); seed < 30; seed++ {
		w, h := run(SchedWheel, seed), run(SchedHeap, seed)
		if len(w) != len(h) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("seed %d: divergence at %d: wheel=%d heap=%d", seed, i, w[i], h[i])
			}
		}
	}
}

// TestSchedulerEquivalencePhased drains the simulator to empty between
// bursts of scheduling, with cancelled far-future timers left behind —
// the campaign's phase structure (build, discovery, traces, sweep), and
// the exact pattern that once stranded the wheel's cursor past the Sim
// clock.
func TestSchedulerEquivalencePhased(t *testing.T) {
	run := func(sched Scheduler, seed int64) []int64 {
		s := NewSimSched(1, sched)
		rng := rand.New(rand.NewSource(seed))
		var log []int64
		id := 0
		for phase := 0; phase < 6; phase++ {
			var timers []Timer
			for i := 0; i < 40; i++ {
				me := id
				id++
				var d time.Duration
				switch rng.Intn(4) {
				case 0:
					d = time.Duration(rng.Intn(512))
				case 1:
					d = time.Duration(rng.Intn(1 << 20))
				case 2:
					d = time.Duration(rng.Int63n(int64(time.Hour)))
				case 3:
					d = time.Duration(rng.Int63n(int64(30 * 24 * time.Hour)))
				}
				timers = append(timers, s.After(d, func() {
					log = append(log, int64(me), int64(s.Now()))
				}))
			}
			// Cancel some — including, often, every far timer, so the
			// drain ends chasing only dead entries.
			for _, tm := range timers {
				if rng.Intn(2) == 0 {
					tm.Stop()
				}
			}
			if rng.Intn(2) == 0 {
				s.RunUntil(s.Now() + time.Duration(rng.Int63n(int64(24*time.Hour))))
			}
			s.Run()
			if s.Pending() != 0 {
				t.Fatalf("%s seed %d phase %d: %d events stranded after Run",
					sched.Name(), seed, phase, s.Pending())
			}
		}
		return log
	}
	for seed := int64(0); seed < 25; seed++ {
		w, h := run(SchedWheel, seed), run(SchedHeap, seed)
		if len(w) != len(h) {
			t.Fatalf("seed %d: wheel logged %d, heap %d", seed, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("seed %d: divergence at %d: wheel=%d heap=%d", seed, i, w[i], h[i])
			}
		}
	}
}

func TestSchedulerStress(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(7)
		rng := rand.New(rand.NewSource(99))
		count := 0
		for i := 0; i < 10000; i++ {
			s.After(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() { count++ })
		}
		for s.Pending() > 0 {
			before := s.Now()
			if !s.Step() {
				break
			}
			if s.Now() < before {
				t.Fatal("time went backwards")
			}
		}
		if count != 10000 {
			t.Errorf("executed %d of 10000", count)
		}
	})
}

// TestSchedulerEquivalenceSingletonCascade aims the wheel-vs-heap
// differential at the cascade's singleton hand-off (a higher-level slot
// whose chain holds one live event goes straight to the due buffer):
// scripted cases for a lone event per slot at several levels, a
// same-nanosecond tie scheduled while the handed-off event is firing, a
// cancelled singleton, and a two-entry chain whose other entry is dead
// — then a sparse random workload in which most chains are singletons.
// A far timer keeps the wheel out of its register mode throughout, so
// every pop goes through wheelAdvance.
func TestSchedulerEquivalenceSingletonCascade(t *testing.T) {
	type fire struct {
		id int
		at time.Duration
	}
	scripted := func(sched Scheduler) []fire {
		s := NewSimSched(1, sched)
		var log []fire
		mark := func(id int) func() { return func() { log = append(log, fire{id, s.Now()}) } }
		s.After(400*24*time.Hour, mark(99)) // far anchor: never alone in the wheel until the end

		// One event per slot, at levels 1, 2, 3 and 4.
		s.After(300, mark(1))
		s.After(70_000, mark(2))
		s.After(20*time.Millisecond, mark(3))
		s.After(5*time.Second, mark(4))

		// A tie arriving while a singleton fires: the handler schedules
		// two zero-delay events for its own nanosecond (they must run
		// after it, in FIFO order), and one a nanosecond later.
		s.After(time.Minute, func() {
			mark(5)()
			s.After(0, mark(6))
			s.After(1, mark(8))
			s.After(0, mark(7))
		})

		// A cancelled singleton, alone in its slot; the cascade must
		// step over it to the next slot's singleton.
		dead := s.After(2*time.Minute, mark(-1))
		s.After(3*time.Minute, mark(9))
		dead.Stop()

		// Two entries in one slot, one cancelled: the purge leaves a
		// chain of one, which takes the hand-off.
		shared := s.After(10*time.Minute, mark(-2))
		s.After(10*time.Minute+5, mark(10))
		shared.Stop()

		// Same slot, same nanosecond, both live: not a singleton — the
		// ordinary re-file and seq-ordered drain.
		s.After(time.Hour, mark(11))
		s.After(time.Hour, mark(12))

		// RunUntil stops exactly on a singleton's instant, peeks past
		// it, then the tie is scheduled from outside any handler.
		s.After(2*time.Hour, mark(13))
		s.RunUntil(2 * time.Hour)
		s.After(0, mark(14))
		s.Run()
		return log
	}
	sparse := func(sched Scheduler, seed int64) []fire {
		s := NewSimSched(1, sched)
		rng := rand.New(rand.NewSource(seed))
		var log []fire
		s.After(400*24*time.Hour, func() {})
		id, budget := 0, 400
		var spawn func()
		spawn = func() {
			for n := 1 + rng.Intn(2); n > 0 && budget > 0; n-- {
				budget--
				me := id
				id++
				// Mostly whole windows apart; now and then a tie.
				d := time.Duration(rng.Int63n(1 << uint(8+rng.Intn(36))))
				if rng.Intn(6) == 0 {
					d = 0
				}
				tm := s.After(d, func() {
					log = append(log, fire{me, s.Now()})
					spawn()
				})
				if rng.Intn(5) == 0 {
					tm.Stop()
					spawn() // keep the chain alive past the cancellation
				}
			}
		}
		spawn()
		if rng.Intn(2) == 0 {
			s.RunUntil(time.Duration(rng.Int63n(int64(time.Hour))))
		}
		s.Run()
		return log
	}
	compare := func(name string, w, h []fire) {
		t.Helper()
		if len(w) != len(h) {
			t.Fatalf("%s: wheel fired %d events, heap %d", name, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("%s: divergence at %d: wheel=%v heap=%v", name, i, w[i], h[i])
			}
		}
	}
	w := scripted(SchedWheel)
	compare("scripted", w, scripted(SchedHeap))
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 99}
	if len(w) != len(want) {
		t.Fatalf("scripted: fired %d events, want %d: %v", len(w), len(want), w)
	}
	for i, f := range w {
		if f.id != want[i] {
			t.Fatalf("scripted: fire %d is event %d, want %d", i, f.id, want[i])
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		compare("sparse", sparse(SchedWheel, seed), sparse(SchedHeap, seed))
	}
}

// TestSimResetDiscardsPending: Reset on a simulator that still holds
// work — live timers, a cancelled one, a packet in flight — discards it
// unexecuted, returns every slab slot to the free list (capacity is
// kept, not leaked), releases the packet's buffer, leaves old Timer
// handles stale, and rewinds clock, counters and PRNG to NewSimSched's.
func TestSimResetDiscardsPending(t *testing.T) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		s := NewSimSched(7, sched)
		fired := 0
		soon := s.After(time.Second, func() { fired++ })
		s.After(time.Hour, func() { fired++ })
		s.After(time.Minute, func() { fired++ }).Stop()
		sink := &sinkNode{label: "sink"}
		inFlight := testWire(t, ecn.NotECT, 8).Retain() // one reference is ours
		s.deliverAfter(2*time.Second, sink, inFlight, nil)
		s.After(time.Millisecond, func() { s.RNG().Int63() })
		s.RunUntil(10 * time.Millisecond)
		if s.Pending() != 3 || s.Executed() != 1 {
			t.Fatalf("%s: before Reset pending=%d executed=%d, want 3 and 1", sched.Name(), s.Pending(), s.Executed())
		}

		s.Reset()
		if s.Pending() != 0 || s.Now() != 0 || s.Executed() != 0 {
			t.Errorf("%s: after Reset pending=%d now=%v executed=%d", sched.Name(), s.Pending(), s.Now(), s.Executed())
		}
		if len(s.free) != len(s.slab) {
			t.Errorf("%s: %d of %d slab slots on the free list after Reset", sched.Name(), len(s.free), len(s.slab))
		}
		if soon.Stop() {
			t.Errorf("%s: a Timer from before the Reset cancelled something", sched.Name())
		}
		s.Run()
		if fired != 0 || len(sink.received) != 0 {
			t.Errorf("%s: %d discarded timers fired, %d discarded packets arrived", sched.Name(), fired, len(sink.received))
		}
		if got, want := s.RNG().Int63(), NewSim(7).RNG().Int63(); got != want {
			t.Errorf("%s: PRNG not rewound to the construction seed", sched.Name())
		}
		// Reset dropped the event's reference, so ours is the last one:
		// a second Release must be the over-release the refcount traps.
		inFlight.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Reset did not release the in-flight packet's buffer", sched.Name())
				}
			}()
			inFlight.Release()
		}()
	}
}
