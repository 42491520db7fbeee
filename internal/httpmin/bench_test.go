package httpmin

import "testing"

// getLoop runs complete Get exchanges against PoolHandler — dial,
// request, 302, close on both sides — with its callback built once, so
// a run costs only what httpmin and tcpsim cost.
type getLoop struct {
	f      *httpFixture
	status int
	done   func(GetResult)
}

func newGetLoop(tb testing.TB) *getLoop {
	l := &getLoop{f: newHTTPFixture(tb, 1)}
	if _, err := Serve(l.f.ss, Port, true, PoolHandler); err != nil {
		tb.Fatal(err)
	}
	l.done = func(r GetResult) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
		l.status = r.Response.StatusCode
	}
	return l
}

func (l *getLoop) run(tb testing.TB, requestECN bool) {
	l.status = 0
	Get(l.f.cs, l.f.server.Addr(), Port, "/", requestECN, l.done)
	l.f.sim.Run()
	if l.status != 302 {
		tb.Fatalf("status = %d", l.status)
	}
}

// BenchmarkGetExchange measures the paper's HTTP probe end to end, with
// and without an ECN-setup SYN; steady state is 0 allocs/op
// (TestGetAllocFree holds that line).
func BenchmarkGetExchange(b *testing.B) {
	for _, bc := range []struct {
		name string
		ecn  bool
	}{{"plain", false}, {"ecn", true}} {
		b.Run(bc.name, func(b *testing.B) {
			l := newGetLoop(b)
			l.run(b, bc.ecn) // fill the free lists
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.run(b, bc.ecn)
			}
		})
	}
}

func TestGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	l := newGetLoop(t)
	for _, ecn := range []bool{false, true} {
		l.run(t, ecn)
		if allocs := testing.AllocsPerRun(100, func() { l.run(t, ecn) }); allocs != 0 {
			t.Errorf("Get (ecn=%v) allocates %.1f times per exchange, want 0", ecn, allocs)
		}
	}
}
