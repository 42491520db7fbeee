package netsim

import "time"

// ScheduleBenchWorkloadSparse is the second scheduler-benchmark kernel:
// a sparse timeline, where the pending set stays small and consecutive
// events sit whole windows apart — the shape an idle-heavy measurement
// campaign produces between probe exchanges (RTT waits, retransmission
// timeouts, epoch jumps). The cost that dominates is finding the next
// instant. Like ScheduleBenchWorkload it schedules timers only, so on
// either scheduler it times the heap path, which packet deliveries no
// longer take on the default one (they ride the per-delay lanes).
func ScheduleBenchWorkloadSparse(s *Sim, n int) {
	k := sparseKernel{s: s, n: n}
	k.step = k.chain
	k.noop = func() {}
	k.chain()
	s.Run()
}

// sparseKernel is the sparse workload's state, with both callbacks
// bound once so the steady-state chain schedules without allocating —
// the same discipline the packet hot path follows.
type sparseKernel struct {
	s          *Sim
	i, n       int
	step, noop func()
}

func (k *sparseKernel) chain() {
	i := k.i
	k.i++
	if i >= k.n {
		return
	}
	// A probe exchange now and then, then a long quiet gap:
	// microseconds to tens of seconds between instants.
	gap := time.Duration(1+i*2654435761%977) * 10 * time.Microsecond
	switch i % 11 {
	case 3:
		gap += time.Duration(i%7) * time.Second
	case 7:
		gap += 500 * time.Millisecond
	}
	k.s.After(gap, k.step)
	if i%5 == 0 {
		// A timeout armed far ahead and almost always cancelled — the
		// retransmission-timer pattern.
		tm := k.s.After(30*time.Second, k.noop)
		if i%50 != 0 {
			tm.Stop()
		}
	}
}

// ScheduleBenchWorkload is the shared scheduler-benchmark kernel: a
// steady-state churn of mixed near and far timers — protocol timeouts
// (ms–s) beside long-lived idle timers (minutes+), far timers mostly
// cancelled, as retransmission timers usually are.
// BenchmarkSimSchedule, TestSimScheduleAllocFree (0 allocs) and
// bench/'s netsim.sched_ns_per_event kernel all run exactly this
// function, so the ledger and the allocation test cannot drift apart.
// Its events are timers only: on either scheduler it times the heap
// path, not the per-delay lanes packet deliveries ride
// (BenchmarkEventLoop's deliveries variant times those).
func ScheduleBenchWorkload(s *Sim, n int) {
	var far [64]Timer
	for i := 0; i < n; i++ {
		var d time.Duration
		switch i & 7 {
		case 0, 1, 2, 3:
			d = time.Duration(i%1000) * time.Microsecond
		case 4, 5:
			d = time.Duration(i%50) * time.Millisecond
		case 6:
			d = time.Duration(i%10) * time.Second
		default:
			d = 5 * time.Minute
		}
		tm := s.After(d, func() {})
		if i&7 == 7 {
			far[(i>>3)&63].Stop() // churn cancelled far timers, heap's worst case
			far[(i>>3)&63] = tm
		}
		if i%512 == 0 {
			s.RunUntil(s.Now() + time.Millisecond)
		}
	}
	s.Run()
}
