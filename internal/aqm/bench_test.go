package aqm

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// newBufRing builds a ring of pooled wire buffers carrying the
// reference ECT(0) datagram. The ring is larger than any queue
// operating point in these benchmarks, so a buffer is never offered
// while still queued; each benchmark iteration restores its ECN field
// in place (the incremental-checksum path) instead of re-copying the
// whole template, which is exactly what the link layer's packets do —
// a buffer's bytes are written once at serialization and then only
// mutated.
func newBufRing(tb testing.TB, n int) []*packet.Buf {
	tb.Helper()
	template, err := packet.BuildUDP(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		40000, 123, 64, ecn.ECT0, 1, make([]byte, 480))
	if err != nil {
		tb.Fatal(err)
	}
	ring := make([]*packet.Buf, n)
	for i := range ring {
		ring[i] = packet.NewBuf()
		ring[i].Write(template)
	}
	return ring
}

// BenchmarkCEMarkThroughput measures the pooled enqueue→mark→dequeue
// hot path of each discipline under saturation: every packet traverses
// the full admission decision and most take a congestion action (CE
// re-mark with RFC 1624 incremental checksum update). This is the
// per-packet cost a congested campaign pays at every bottleneck.
// Steady state must be allocation-free — TestCEMarkPathAllocFree fails
// on any allocation here.
func BenchmarkCEMarkThroughput(b *testing.B) {
	for _, name := range []string{"droptail", "red", "codel"} {
		b.Run(name, func(b *testing.B) {
			q, err := New(name, 50, rand.New(rand.NewSource(2015)))
			if err != nil {
				b.Fatal(err)
			}
			ring := newBufRing(b, 64)
			now := time.Duration(0)
			b.SetBytes(int64(ring[0].Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bf := ring[i&63]
				// Restore ECT(0) after any CE mark from the buffer's last
				// trip through the queue.
				if err := packet.SetWireECN(bf.Bytes(), ecn.ECT0); err != nil {
					b.Fatal(err)
				}
				q.Enqueue(now, NewPacket(bf.Retain()))
				if q.Len() > 30 {
					if p, ok := q.Dequeue(now); ok {
						p.TakeBuf().Release()
					}
				}
				now += 100 * time.Microsecond
			}
		})
	}
}

// TestCEMarkPathAllocFree asserts the zero-allocation property the
// benchmark reports: once the pools are warm, a packet's trip through
// restore→enqueue→mark→dequeue→release allocates nothing.
func TestCEMarkPathAllocFree(t *testing.T) {
	for _, name := range []string{"droptail", "red", "codel"} {
		q, err := New(name, 50, rand.New(rand.NewSource(2015)))
		if err != nil {
			t.Fatal(err)
		}
		ring := newBufRing(t, 64)
		now := time.Duration(0)
		i := 0
		step := func() {
			bf := ring[i&63]
			if err := packet.SetWireECN(bf.Bytes(), ecn.ECT0); err != nil {
				t.Fatal(err)
			}
			q.Enqueue(now, NewPacket(bf.Retain()))
			if q.Len() > 30 {
				if p, ok := q.Dequeue(now); ok {
					p.TakeBuf().Release()
				}
			}
			now += 100 * time.Microsecond
			i++
		}
		// Warm the queue past its operating point first, so growth of the
		// fifo's backing array is behind us.
		for i := 0; i < 200; i++ {
			step()
		}
		if n := testing.AllocsPerRun(500, step); n > 0 {
			t.Errorf("%s: pooled CE-mark path allocates %.2f objects/op, want 0", name, n)
		}
	}
}
