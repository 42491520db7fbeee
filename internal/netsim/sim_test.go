package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// pending counts the events scheduled and not yet fired or cancelled:
// every lane delivery and every heap entry whose body is still live.
func (s *Sim) pending() int {
	n := 0
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	for _, he := range s.heap {
		if !s.slab[he.idx].dead() {
			n++
		}
	}
	return n
}

// forEachSched runs a subtest against both schedulers: every observable
// Sim behaviour must be identical on the lanes and the heap.
func forEachSched(t *testing.T, f func(t *testing.T, newSim func(seed int64) *Sim)) {
	t.Helper()
	for _, sched := range []Scheduler{SchedLanes, SchedHeap} {
		sched := sched
		t.Run(sched.Name(), func(t *testing.T) {
			f(t, func(seed int64) *Sim { return NewSimSched(seed, sched) })
		})
	}
}

// TestSelectorZeroValues pins the selectors' defaults: the zero
// Scheduler and XTrafficMode are the production lanes and lazy drive
// NewSim makes, and the names the determinism grid's golden lines carry
// (sched=, xtraffic=) stay put.
func TestSelectorZeroValues(t *testing.T) {
	var sched Scheduler
	var mode XTrafficMode
	if sched != SchedLanes || mode != XTrafficLazy {
		t.Fatalf("zero values = %v, %v; want the lanes and the lazy drive", sched, mode)
	}
	if SchedLanes.Name() != "lanes" || SchedHeap.Name() != "heap" ||
		XTrafficLazy.Name() != "lazy" || XTrafficEvents.Name() != "events" {
		t.Error("selector names changed")
	}
	if NewSim(1).heapOnly {
		t.Error("default scheduler is not the lanes")
	}
}

// TestSimHotFieldsPadded: every field of Sim an event touches must sit
// at least a cache line away from either end of the struct, so two
// shard workers' simulators allocated side by side never share a line
// one of them writes on every event.
func TestSimHotFieldsPadded(t *testing.T) {
	size := reflect.TypeOf(Sim{}).Size()
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Sim{})) {
		if f.Name == "_" {
			continue
		}
		if end := f.Offset + f.Type.Size(); f.Offset < 64 || end > size-64 {
			t.Errorf("Sim.%s occupies [%d, %d) of %d bytes: within 64 B of an end", f.Name, f.Offset, end, size)
		}
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

// TestRunUntilThenEarlierInsert: after RunUntil stops short of a far
// event, a new event scheduled between the deadline and that far event
// must still fire first and in order.
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
		if s.pending() != 0 {
			t.Errorf("pending = %d", s.pending())
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

// TestPendingCountBothSchedulers: the pending count covers lane
// deliveries and heap events alike — armed, cancelled, fired and
// discarded by a Reset.
func TestPendingCountBothSchedulers(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(1)
		sink := &sinkNode{label: "sink"}
		links := []*Link{
			newLink(s, &sinkNode{label: "a"}, sink, 0, 0),
			newLink(s, &sinkNode{label: "b"}, sink, time.Millisecond, 0),
			newLink(s, &sinkNode{label: "c"}, sink, 3*time.Second, 0),
		}
		timers := make([]Timer, 10)
		for i := range timers {
			timers[i] = s.After(time.Duration(i+1)*time.Second, func() {})
			links[i%3].send(0, testWire(t, ecn.NotECT, 8))
		}
		if s.pending() != 20 {
			t.Fatalf("pending = %d, want 20", s.pending())
		}
		timers[3].Stop()
		timers[7].Stop()
		if s.pending() != 18 {
			t.Fatalf("pending after 2 stops = %d, want 18", s.pending())
		}
		s.Step()
		if s.pending() != 17 || len(sink.received) != 1 {
			t.Fatalf("pending after a step = %d with %d delivered, want 17 and 1", s.pending(), len(sink.received))
		}
		s.RunUntil(2 * time.Second)
		if s.pending() != 9 || len(sink.received) != 7 {
			t.Fatalf("pending at 2s = %d with %d delivered, want 9 and 7", s.pending(), len(sink.received))
		}
		s.Run()
		if s.pending() != 0 || len(sink.received) != 10 {
			t.Fatalf("pending after drain = %d with %d delivered", s.pending(), len(sink.received))
		}
		links[2].send(0, testWire(t, ecn.NotECT, 8))
		s.After(time.Second, func() {})
		s.Reset()
		if s.pending() != 0 {
			t.Fatalf("pending after Reset = %d", s.pending())
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

// laneRig is a differential workload on real link deliveries: four
// logging nodes joined by links of five delays, zero included, so
// deliveries on different lanes and timers keep landing on the same
// instant. Everything random comes from the rig's own source,
// so two rigs on different schedulers issue the same actions exactly
// as long as their events fire in the same order — and log the same.
type laneRig struct {
	s      *Sim
	rng    *rand.Rand
	links  []*Link
	timers []Timer
	log    []int64
	next   int64
	budget int
}

// rigDelays are the rig's link delays; timers draw from them too, so
// they tie with deliveries.
var rigDelays = []time.Duration{0, 3, time.Microsecond, time.Millisecond, 2 * time.Millisecond}

// rigNode logs each delivery it receives and reacts with more work.
type rigNode struct {
	rig *laneRig
	id  int64
}

func (n *rigNode) Receive(b *packet.Buf, _ *Link) {
	n.rig.record(n.id, int64(binary.LittleEndian.Uint64(b.Bytes())))
	b.Release()
	n.rig.spawn()
}

func (n *rigNode) Label() string { return "rig" }

func newLaneRig(sched Scheduler, seed int64, budget int) *laneRig {
	r := &laneRig{s: NewSimSched(1, sched), rng: rand.New(rand.NewSource(seed)), budget: budget}
	var nodes [4]*rigNode
	for i := range nodes {
		nodes[i] = &rigNode{r, int64(i)}
	}
	for i, d := range rigDelays {
		r.links = append(r.links, newLink(r.s, nodes[i%4], nodes[(i+1)%4], d, 0))
	}
	return r
}

// record logs an event: who (a node id, or -1 timer, -3 Stop result,
// -4 Reset), which, and when.
func (r *laneRig) record(who, id int64) { r.log = append(r.log, who, id, int64(r.s.Now())) }

// spawn issues up to three random actions — a delivery, or a timer at
// an instant a delivery may share — and now and then stops an earlier
// timer.
func (r *laneRig) spawn() {
	for n := r.rng.Intn(4); n > 0 && r.budget > 0; n-- {
		r.budget--
		id := r.next
		r.next++
		d := rigDelays[r.rng.Intn(len(rigDelays))]
		switch r.rng.Intn(6) {
		case 0, 1, 2:
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], uint64(id))
			b := packet.NewBuf()
			b.Write(w[:])
			r.links[r.rng.Intn(len(r.links))].send(r.rng.Intn(2), b)
		default:
			r.timers = append(r.timers, r.s.After(d, func() {
				r.record(-1, id)
				r.spawn()
			}))
		}
	}
	if len(r.timers) > 0 && r.rng.Intn(4) == 0 {
		stopped := int64(0)
		if r.timers[r.rng.Intn(len(r.timers))].Stop() {
			stopped = 1
		}
		r.record(-3, stopped)
	}
}

// compareRigs runs the same rig workload on the lanes and the heap
// reference and fails at the first divergence.
func compareRigs(t *testing.T, name string, run func(sched Scheduler) []int64) {
	t.Helper()
	l, h := run(SchedLanes), run(SchedHeap)
	if len(l) < 3*50 {
		t.Fatalf("%s: only %d events logged", name, len(l)/3)
	}
	for i := 0; i < min(len(l), len(h)); i++ {
		if l[i] != h[i] {
			t.Fatalf("%s: divergence at event %d: lanes %v, heap %v", name, i/3, l[i-i%3:i-i%3+3], h[i-i%3:i-i%3+3])
		}
	}
	if len(l) != len(h) {
		t.Fatalf("%s: lanes logged %d events, heap %d", name, len(l)/3, len(h)/3)
	}
}

// Property: the lanes and the heap fire any random mix of deliveries,
// timers and cancellations in the identical (event, time)
// sequence, run to quiescence through RunUntil deadlines — the
// differential guarantee the production scheduler rests on.
func TestSchedulerEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		compareRigs(t, fmt.Sprintf("seed %d", seed), func(sched Scheduler) []int64 {
			r := newLaneRig(sched, seed, 400)
			for r.budget > 0 {
				r.spawn()
				r.s.RunUntil(r.s.Now() + time.Duration(r.rng.Intn(3))*time.Millisecond)
			}
			r.s.Run()
			if r.s.pending() != 0 {
				t.Fatalf("%s seed %d: %d events stranded after Run", sched.Name(), seed, r.s.pending())
			}
			return r.log
		})
	}
}

// TestSchedulerEquivalencePhased drains the simulator between bursts
// of work, or cuts a burst short with a Reset that discards deliveries
// and timers in flight — the campaign's phase structure (build,
// discovery, traces, sweep) and the executor's shard boundary.
func TestSchedulerEquivalencePhased(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		compareRigs(t, fmt.Sprintf("seed %d", seed), func(sched Scheduler) []int64 {
			r := newLaneRig(sched, seed, 0)
			for phase := 0; phase < 6; phase++ {
				r.budget = 120
				for i := 0; i < 8; i++ {
					r.spawn()
				}
				if r.rng.Intn(2) == 0 {
					r.s.RunUntil(r.s.Now() + time.Duration(r.rng.Int63n(int64(3*time.Millisecond))))
				}
				if r.rng.Intn(3) == 0 {
					r.record(-4, int64(r.s.pending()))
					r.s.Reset()
				}
				r.s.Run()
				if r.s.pending() != 0 {
					t.Fatalf("%s seed %d phase %d: %d events stranded after Run",
						sched.Name(), seed, phase, r.s.pending())
				}
			}
			return r.log
		})
	}
}

// TestSchedulerStress: ten thousand deliveries over three lanes,
// interleaved with as many timers, fire in nondecreasing time with
// none lost.
func TestSchedulerStress(t *testing.T) {
	forEachSched(t, func(t *testing.T, newSim func(int64) *Sim) {
		s := newSim(7)
		rng := rand.New(rand.NewSource(99))
		sink := &sinkNode{label: "sink"}
		var links []*Link
		for _, d := range []time.Duration{0, 40 * time.Microsecond, time.Millisecond} {
			links = append(links, newLink(s, &sinkNode{label: "src"}, sink, d, 0))
		}
		count := 0
		for i := 0; i < 10000; i++ {
			s.After(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() {
				count++
				links[count%3].send(0, packet.NewBuf())
			})
		}
		for s.pending() > 0 {
			before := s.Now()
			if !s.Step() {
				break
			}
			if s.Now() < before {
				t.Fatal("time went backwards")
			}
		}
		if count != 10000 || len(sink.received) != 10000 {
			t.Errorf("executed %d timers and %d deliveries of 10000 each", count, len(sink.received))
		}
	})
}

// TestLanePushOutOfOrderPanics: a lane is sorted only because every push
// follows the last in (at, seq); a push that does not must fail loudly
// instead of reordering events.
func TestLanePushOutOfOrderPanics(t *testing.T) {
	var l lane
	l.push(10, 2)
	for _, e := range []delivery{{at: 9, seq: 3}, {at: 10, seq: 1}, {at: 10, seq: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push of (%d, %d) after (10, 2) did not panic", e.at, e.seq)
				}
			}()
			l.push(e.at, e.seq)
		}()
	}
	l.push(10, 3)
	l.push(11, 4)
	if l.n != 3 || l.pop().seq != 2 {
		t.Errorf("lane holds %d entries after the refused pushes, want 3 in order", l.n)
	}
}

// TestSimResetDiscardsPending: Reset on a simulator that still holds
// work — live timers, a cancelled one, a packet in flight — discards it
// unexecuted, returns every slab slot to the free list (capacity is
// kept, not leaked), releases the packet's buffer, leaves old Timer
// handles stale, and rewinds clock, counters and PRNG to NewSimSched's.
func TestSimResetDiscardsPending(t *testing.T) {
	for _, sched := range []Scheduler{SchedLanes, SchedHeap} {
		s := NewSimSched(7, sched)
		fired := 0
		soon := s.After(time.Second, func() { fired++ })
		s.After(time.Hour, func() { fired++ })
		s.After(time.Minute, func() { fired++ }).Stop()
		sink := &sinkNode{label: "sink"}
		inFlight := testWire(t, ecn.NotECT, 8).Retain() // one reference is ours
		s.deliverAfter(newLink(s, &sinkNode{label: "src"}, sink, 2*time.Second, 0), 0, inFlight)
		s.After(time.Millisecond, func() { s.RNG().Int63() })
		s.RunUntil(10 * time.Millisecond)
		if s.pending() != 3 || s.Executed() != 1 {
			t.Fatalf("%s: before Reset pending=%d executed=%d, want 3 and 1", sched.Name(), s.pending(), s.Executed())
		}

		s.Reset()
		if s.pending() != 0 || s.Now() != 0 || s.Executed() != 0 {
			t.Errorf("%s: after Reset pending=%d now=%v executed=%d", sched.Name(), s.pending(), s.Now(), s.Executed())
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
