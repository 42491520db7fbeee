package aqm

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// wirePacket builds a real UDP datagram with the given ECN codepoint.
func wirePacket(t testing.TB, cp ecn.Codepoint) []byte {
	t.Helper()
	wire, err := packet.BuildUDP(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		40000, 123, 64, cp, 1, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestFactory(t *testing.T) {
	for _, name := range []string{"", "red", "droptail", "codel"} {
		q, err := New(name, 16, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if q.Cap() != 16 {
			t.Errorf("New(%q).Cap() = %d, want 16", name, q.Cap())
		}
	}
	if _, err := New("fq-codel", 16, nil); err == nil {
		t.Error("unknown discipline should error")
	}
}

func TestDropTailBounds(t *testing.T) {
	q := NewDropTail(4)
	for i := 0; i < 4; i++ {
		if !q.Enqueue(0, NewPhantom(100)) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if q.Enqueue(0, NewPhantom(100)) {
		t.Fatal("enqueue accepted above capacity")
	}
	if q.Len() != 4 || q.Bytes() != 400 {
		t.Fatalf("Len/Bytes = %d/%d, want 4/400", q.Len(), q.Bytes())
	}
	st := q.Stats()
	if st.Enqueued != 4 || st.TailDropped != 1 || st.CEMarked != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 4; i++ {
		if _, ok := q.Dequeue(time.Second); !ok {
			t.Fatalf("dequeue %d empty", i)
		}
	}
	if _, ok := q.Dequeue(time.Second); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
	if got := q.Stats().SumSojourn; got != 4*time.Second {
		t.Fatalf("SumSojourn = %v, want 4s", got)
	}
}

// TestREDCongestionActions drives RED's average above MaxTh and checks
// the RFC 3168 action split: ECT packets are CE-marked in the wire
// bytes (with a valid checksum), not-ECT packets are dropped.
func TestREDCongestionActions(t *testing.T) {
	q := NewRED(32, rand.New(rand.NewSource(7)))
	// Saturate the EWMA: a standing backlog above MaxTh.
	for i := 0; i < 200; i++ {
		q.Enqueue(0, NewPhantom(512))
		if q.Len() > int(q.MaxTh)+2 {
			q.Dequeue(0)
		}
	}
	if q.Avg() < q.MaxTh {
		t.Fatalf("avg = %.1f, want ≥ maxTh %.1f", q.Avg(), q.MaxTh)
	}

	ect := wirePacket(t, ecn.ECT0)
	p := &Packet{Wire: ect, Size: len(ect)}
	if !q.Enqueue(0, p) {
		t.Fatal("ECT packet dropped; want CE-marked and admitted")
	}
	if cp, err := packet.WireECN(ect); err != nil || cp != ecn.CE {
		t.Fatalf("ECT packet codepoint = %v (%v), want CE", cp, err)
	}
	if _, _, err := packet.ParseIPv4(ect); err != nil {
		t.Fatalf("marked packet no longer parses: %v", err)
	}

	notECT := wirePacket(t, ecn.NotECT)
	if q.Enqueue(0, &Packet{Wire: notECT, Size: len(notECT)}) {
		t.Fatal("not-ECT packet admitted; want dropped by congestion action")
	}

	st := q.Stats()
	if st.WireCEMarked == 0 || st.WireNotECTDropped == 0 {
		t.Fatalf("stats = %+v: want wire CE mark and not-ECT drop", st)
	}
}

// TestREDNoActionWhenIdle checks that a lightly loaded RED queue leaves
// traffic alone: below MinTh nothing is marked or dropped.
func TestREDNoActionWhenIdle(t *testing.T) {
	q := NewRED(32, rand.New(rand.NewSource(7)))
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		wire := wirePacket(t, ecn.ECT0)
		if !q.Enqueue(now, &Packet{Wire: wire, Size: len(wire)}) {
			t.Fatal("packet dropped on an idle queue")
		}
		q.Dequeue(now + time.Millisecond)
		now += 10 * time.Millisecond
	}
	st := q.Stats()
	if st.CEMarked != 0 || st.NotECTDropped != 0 {
		t.Fatalf("idle queue took congestion actions: %+v", st)
	}
}

// TestREDMarkRatioMonotoneInLoad runs the same arrival/service pattern
// at increasing offered load and checks the CE-mark ratio never
// decreases — the property the scenario-level CE report relies on.
func TestREDMarkRatioMonotoneInLoad(t *testing.T) {
	ratio := func(arrivalsPerService int) float64 {
		q := NewRED(50, rand.New(rand.NewSource(2015)))
		now := time.Duration(0)
		for step := 0; step < 2000; step++ {
			for a := 0; a < arrivalsPerService; a++ {
				wire := wirePacket(t, ecn.ECT0)
				q.Enqueue(now, &Packet{Wire: wire, Size: len(wire)})
			}
			q.Dequeue(now)
			now += 4 * time.Millisecond
		}
		return q.Stats().WireMarkRatio()
	}
	prev := -1.0
	var ratios []float64
	for _, load := range []int{1, 2, 3, 5} {
		r := ratio(load)
		ratios = append(ratios, r)
		if r < prev {
			t.Fatalf("mark ratio not monotone in load: %v", ratios)
		}
		prev = r
	}
	if ratios[0] >= ratios[len(ratios)-1] {
		t.Fatalf("mark ratio flat across loads: %v", ratios)
	}
}

// TestREDDeterminism: identical seeds must reproduce the exact marking
// pattern — the property that keeps congested campaigns byte-identical.
func TestREDDeterminism(t *testing.T) {
	run := func() []ecn.Codepoint {
		q := NewRED(16, rand.New(rand.NewSource(99)))
		var out []ecn.Codepoint
		for i := 0; i < 500; i++ {
			wire := wirePacket(t, ecn.ECT0)
			if q.Enqueue(0, &Packet{Wire: wire, Size: len(wire)}) {
				cp, _ := packet.WireECN(wire)
				out = append(out, cp)
			}
			if i%3 == 0 {
				q.Dequeue(0)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("marking diverges at packet %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCoDelMarksPersistentQueue holds sojourn above target past an
// interval and checks ECT heads get marked while not-ECT heads drop.
func TestCoDelMarksPersistentQueue(t *testing.T) {
	q := NewCoDel(64)
	now := time.Duration(0)
	marked := 0
	for step := 0; step < 400; step++ {
		cp := ecn.ECT0
		if step%4 == 3 {
			cp = ecn.NotECT
		}
		wire := wirePacket(t, cp)
		q.Enqueue(now, &Packet{Wire: wire, Size: len(wire)})
		// Dequeue lagging behind arrivals: standing queue, 20ms sojourn.
		if step >= 4 {
			if p, ok := q.Dequeue(now); ok && !p.Phantom() {
				if got, _ := packet.WireECN(p.Wire); got == ecn.CE {
					marked++
				}
			}
		}
		now += 5 * time.Millisecond
	}
	st := q.Stats()
	if marked == 0 {
		t.Fatal("CoDel never CE-marked a persistently queued ECT packet")
	}
	if st.WireCEMarked == 0 {
		t.Fatalf("stats lack CE marks: %+v", st)
	}
	if st.WireNotECTDropped == 0 {
		t.Fatalf("CoDel never dropped a not-ECT head: %+v", st)
	}
}

// TestCoDelDequeueDropAccounting: a not-ECT packet dropped by the
// control law at dequeue must count exactly once in Offered (as a
// congestion drop) and not as Dequeued — the invariant the CE-mark
// report's occupancy denominator relies on.
func TestCoDelDequeueDropAccounting(t *testing.T) {
	q := NewCoDel(64)
	now := time.Duration(0)
	const n = 400
	for step := 0; step < n; step++ {
		cp := ecn.NotECT
		if step%2 == 0 {
			cp = ecn.ECT0
		}
		wire := wirePacket(t, cp)
		q.Enqueue(now, &Packet{Wire: wire, Size: len(wire)})
		if step >= 4 {
			q.Dequeue(now) // sustained 20ms sojourn → dropping state
		}
		now += 5 * time.Millisecond
	}
	st := q.Stats()
	if st.NotECTDropped == 0 {
		t.Fatal("control law never dropped a not-ECT head")
	}
	if got, want := st.Offered(), uint64(n); got != want {
		t.Fatalf("Offered = %d, want exactly %d offered packets", got, want)
	}
	if st.Dequeued+st.NotECTDropped+st.TailDropped+uint64(q.Len()) != uint64(n) {
		t.Fatalf("conservation violated: dequeued %d + dropped %d+%d + queued %d != %d",
			st.Dequeued, st.NotECTDropped, st.TailDropped, q.Len(), n)
	}
}

// TestCoDelQuietBelowTarget: a short queue must pass untouched.
func TestCoDelQuietBelowTarget(t *testing.T) {
	q := NewCoDel(64)
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		wire := wirePacket(t, ecn.ECT0)
		q.Enqueue(now, &Packet{Wire: wire, Size: len(wire)})
		q.Dequeue(now + time.Millisecond) // 1ms sojourn < 5ms target
		now += 10 * time.Millisecond
	}
	if st := q.Stats(); st.CEMarked != 0 || st.NotECTDropped != 0 {
		t.Fatalf("quiet CoDel took congestion actions: %+v", st)
	}
}

// TestPhantomPackets: phantoms count as ECT(0) background, are marked
// not dropped, and never appear in the Wire* ground-truth counters.
func TestPhantomPackets(t *testing.T) {
	q := NewRED(32, rand.New(rand.NewSource(7)))
	for i := 0; i < 300; i++ {
		q.Enqueue(0, NewPhantom(512))
		if q.Len() > 20 {
			q.Dequeue(0)
		}
	}
	st := q.Stats()
	if st.CEMarked == 0 {
		t.Fatal("saturated RED never marked phantom background")
	}
	if st.WireEnqueued != 0 || st.WireCEMarked != 0 || st.WireECT != 0 {
		t.Fatalf("phantoms leaked into wire counters: %+v", st)
	}
	if st.NotECTDropped != 0 {
		t.Fatalf("phantom background was dropped, not marked: %+v", st)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Enqueued: 8, TailDropped: 2, SumBacklog: 30, WireECT: 10, WireCEMarked: 4}
	if s.Offered() != 10 {
		t.Errorf("Offered = %d", s.Offered())
	}
	if s.AvgBacklog() != 3 {
		t.Errorf("AvgBacklog = %v", s.AvgBacklog())
	}
	if s.WireMarkRatio() != 0.4 {
		t.Errorf("WireMarkRatio = %v", s.WireMarkRatio())
	}
	var zero Stats
	if zero.AvgBacklog() != 0 || zero.WireMarkRatio() != 0 {
		t.Error("zero stats should yield zero ratios")
	}
}

// TestResetTransient: the reset clears control state (so trace-boundary
// marking behaviour is history-free) but preserves lifetime stats and
// queued packets.
func TestResetTransient(t *testing.T) {
	t.Run("red", func(t *testing.T) {
		q := NewRED(16, rand.New(rand.NewSource(1)))
		now := time.Duration(0)
		for i := 0; i < 64; i++ {
			q.Enqueue(now, &Packet{Wire: wirePacket(t, ecn.ECT0), Size: 100})
			if q.Len() > 12 {
				if p, ok := q.Dequeue(now); ok {
					p.Free()
				}
			}
			now += time.Millisecond
		}
		if q.Avg() == 0 {
			t.Fatal("EWMA never built")
		}
		stats := q.Stats()
		backlog := q.Len()
		q.ResetTransient()
		if q.Avg() != 0 || q.count != 0 || q.idle {
			t.Errorf("control state survives reset: avg=%v count=%d idle=%v", q.Avg(), q.count, q.idle)
		}
		if q.Stats() != stats {
			t.Error("lifetime stats must survive the reset")
		}
		if q.Len() != backlog {
			t.Errorf("queued packets lost: %d vs %d", q.Len(), backlog)
		}
		// Behaviour after reset matches a fresh queue fed the same input:
		// the very next arrival sees avg rebuilt from zero.
		q.Enqueue(now, &Packet{Wire: wirePacket(t, ecn.ECT0), Size: 100})
		if want := q.Wq * float64(backlog); q.Avg() != want {
			t.Errorf("post-reset avg = %v, want %v", q.Avg(), want)
		}
	})
	t.Run("codel", func(t *testing.T) {
		q := NewCoDel(64)
		now := time.Duration(0)
		for i := 0; i < 64; i++ {
			q.Enqueue(now, &Packet{Wire: wirePacket(t, ecn.ECT0), Size: 100})
		}
		// Drain slowly so sojourn stays above target and dropping engages.
		now += 200 * time.Millisecond
		for i := 0; i < 32; i++ {
			if p, ok := q.Dequeue(now); ok {
				p.Free()
			}
			now += 20 * time.Millisecond
		}
		if !q.dropping {
			t.Fatal("CoDel never entered dropping state")
		}
		q.ResetTransient()
		if q.dropping || q.firstAbove != 0 || q.dropNext != 0 || q.count != 0 {
			t.Error("CoDel control state survives reset")
		}
	})
	t.Run("droptail", func(t *testing.T) {
		q := NewDropTail(4)
		q.Enqueue(0, &Packet{Wire: wirePacket(t, ecn.ECT0), Size: 100})
		stats := q.Stats()
		q.ResetTransient() // memoryless: must be a no-op
		if q.Stats() != stats || q.Len() != 1 {
			t.Error("DropTail reset changed state")
		}
	})
}

// TestReset: unlike ResetTransient, the full reset also empties the
// queue — releasing the wire buffers of packets still in it — and
// zeroes the lifetime stats, for every discipline: a queue that is
// Reset behaves, and accounts, like a new one.
func TestReset(t *testing.T) {
	for _, name := range []string{"droptail", "red", "codel"} {
		t.Run(name, func(t *testing.T) {
			q, err := New(name, 16, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			queued, err := packet.BuildUDPBuf(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
				40000, 123, 64, ecn.ECT0, 1, []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			queued.Retain() // one reference is ours
			q.Enqueue(0, NewPacket(queued))
			q.EnqueuePhantoms(0, 512, 30) // overflows: tail drops, and RED's EWMA builds
			if p, ok := q.Dequeue(time.Millisecond); !ok || p.Phantom() {
				t.Fatal("head should be the real packet")
			} else {
				q.Enqueue(time.Millisecond, p) // back in, behind the phantoms
			}
			if q.Len() == 0 || q.Stats() == (Stats{}) {
				t.Fatal("nothing to reset")
			}

			q.Reset()
			if q.Len() != 0 || q.Bytes() != 0 || q.Stats() != (Stats{}) {
				t.Errorf("after Reset: len %d, bytes %d, stats %+v", q.Len(), q.Bytes(), q.Stats())
			}
			if _, ok := q.Dequeue(2 * time.Millisecond); ok {
				t.Error("a reset queue still serves packets")
			}
			// The queue's reference is gone, so ours is the last: a second
			// Release must be the over-release the refcount traps.
			queued.Release()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Reset did not release the queued packet's buffer")
					}
				}()
				queued.Release()
			}()
		})
	}
}
