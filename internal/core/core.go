// Package core implements the paper's measurement application — the
// custom prober that Section 3 describes. It is the primary contribution
// of the reproduction: everything else in this repository is substrate
// for it.
//
// For each server in the discovered pool, a trace performs four
// measurements in order, exactly as the paper does:
//
//  1. NTP request in a not-ECT marked UDP packet (1 s timeout, up to
//     five retransmissions);
//  2. the same with an ECT(0) marked UDP packet — ECT(0) rather than
//     ECT(1), to match the marking TCP stacks use;
//  3. HTTP GET for the server's root page over TCP without ECN;
//  4. the same with an ECN-setup SYN, recording whether an ECN-setup
//     SYN-ACK comes back.
//
// RunTrace is one such pass over the whole pool; the campaign engine
// (package campaign) runs a configured number of them from each of the
// 13 vantage points across two batches, rolling pool churn and
// access-line conditions between traces, and merges a dataset.Dataset.
// A separate traceroute campaign (Section 4.2, RunTracerouteCampaign)
// probes every vantage→server path with TTL-limited ECT(0) UDP packets.
package core

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/ecn"
	"repro/internal/httpmin"
	"repro/internal/netsim"
	"repro/internal/ntp"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// ProbeServer runs the paper's four measurements from a vantage point
// against one server, invoking done with the observation. Measurements
// run strictly in sequence, as the paper's prober did.
//
// The sequence is a recycled state machine with callbacks bound once
// per shell: server probes are the campaign's innermost loop (traces ×
// servers × four measurements), so the steady-state cost is zero
// allocations rather than a closure per step. Shells wait on a free
// list the vantage owns (Vantage.UserData), as ntp's wait on the host
// and httpmin's on the TCP stack.
func ProbeServer(v *topology.Vantage, server packet.Addr, done func(dataset.Observation)) {
	p, _ := v.UserData.(*serverProbe)
	if p != nil {
		v.UserData = p.next
		p.next = nil
	} else {
		p = new(serverProbe)
		p.onNTP1 = p.ntp1
		p.onNTP2 = p.ntp2
		p.onGet3 = p.get3
		p.onGet4 = p.get4
	}
	p.v = v
	p.done = done
	p.obs = dataset.Observation{Server: server}
	// Measurement 1: NTP over not-ECT UDP.
	ntp.Probe(v.Host, server, ntp.ProbeConfig{ECN: ecn.NotECT}, p.onNTP1)
}

// serverProbe is one in-flight four-measurement sequence.
type serverProbe struct {
	next *serverProbe // free-list link
	v    *topology.Vantage
	obs  dataset.Observation
	done func(dataset.Observation)

	onNTP1, onNTP2 func(ntp.ProbeResult)
	onGet3, onGet4 func(httpmin.GetResult)
}

func (p *serverProbe) ntp1(r ntp.ProbeResult) {
	p.obs.UDPReachable = r.Reachable
	p.obs.UDPAttempts = uint8(r.Attempts) // ≤ 255: ntp.ProbeConfig bounds the budget
	// Measurement 2: NTP over ECT(0)-marked UDP.
	ntp.Probe(p.v.Host, p.obs.Server, ntp.ProbeConfig{ECN: ecn.ECT0}, p.onNTP2)
}

func (p *serverProbe) ntp2(r ntp.ProbeResult) {
	p.obs.UDPECTReachable = r.Reachable
	p.obs.UDPECTAttempts = uint8(r.Attempts)
	// Measurement 3: HTTP GET without ECN.
	httpmin.Get(p.v.Stack, p.obs.Server, httpmin.Port, "/", false, p.onGet3)
}

func (p *serverProbe) get3(r httpmin.GetResult) {
	p.obs.TCPReachable = r.Err == nil && r.Response != nil
	if r.Response != nil {
		p.obs.HTTPStatus = uint16(r.Response.StatusCode) // three digits: httpmin refuses any other
	}
	// Measurement 4: HTTP GET with an ECN-setup SYN.
	httpmin.Get(p.v.Stack, p.obs.Server, httpmin.Port, "/", true, p.onGet4)
}

func (p *serverProbe) get4(r httpmin.GetResult) {
	p.obs.TCPECNReachable = r.Err == nil && r.Response != nil
	p.obs.TCPECN = r.ECNNegotiated
	done, obs, v := p.done, p.obs, p.v
	p.v = nil
	p.done = nil
	// Last touch: done may start the next probe, reusing this shell.
	p.next, _ = v.UserData.(*serverProbe)
	v.UserData = p
	done(obs)
}

// RunTrace probes every server in order from one vantage point and
// invokes done with the completed trace. Server conditions (churn,
// congestion, vantage loss) must already be applied. One traceRun shell
// (with bound-once callbacks) drives the whole server list, so the
// per-server loop allocates nothing.
func RunTrace(v *topology.Vantage, servers []packet.Addr, batch topology.Batch, index int, done func(dataset.Trace)) {
	sim := v.Host.Sim()
	t := &traceRun{v: v, servers: servers, sim: sim, done: done}
	t.trace = dataset.Trace{
		Vantage:      v.Name,
		Batch:        int(batch),
		Index:        index,
		Started:      sim.Now(),
		Observations: make([]dataset.Observation, 0, len(servers)),
	}
	t.nextFn = t.next
	t.obsFn = t.observed
	t.next()
}

// traceRun is one trace's iteration state.
type traceRun struct {
	v       *topology.Vantage
	servers []packet.Addr
	sim     *netsim.Sim
	trace   dataset.Trace
	done    func(dataset.Trace)
	i       int
	nextFn  func()
	obsFn   func(dataset.Observation)
}

func (t *traceRun) next() {
	if t.i == len(t.servers) {
		t.done(t.trace)
		return
	}
	server := t.servers[t.i]
	t.i++
	ProbeServer(t.v, server, t.obsFn)
}

func (t *traceRun) observed(obs dataset.Observation) {
	t.trace.Observations = append(t.trace.Observations, obs)
	// Yield through the event loop: keeps the call stack flat across
	// 2500 sequential servers.
	t.sim.After(0, t.nextFn)
}

// PaperTracePlan allocates the paper's 210 traces across the 13 vantage
// points: the homes and the Glasgow wireless network collected both
// batches, EC2 only the later one. The exact split is not given in the
// paper; this plan preserves the total and the batch structure.
func PaperTracePlan() map[string]int {
	plan := map[string]int{
		"Perkins home":        25,
		"McQuistin home":      25,
		"U. Glasgow wired":    14,
		"U. Glasgow wireless": 20,
	}
	for _, name := range []string{
		"EC2 California", "EC2 Frankfurt", "EC2 Ireland", "EC2 Oregon",
		"EC2 Sao Paulo", "EC2 Singapore", "EC2 Sydney", "EC2 Tokyo",
		"EC2 Virginia",
	} {
		plan[name] = 14 // 9 × 14 = 126; 126 + 84 = 210
	}
	return plan
}

// BatchFor assigns trace k of a vantage's n-trace quota to a collection
// batch: the final floor(n×batch2Fraction) traces belong to batch 2
// (July/August conditions), the rest to batch 1. The assignment depends
// only on the trace's per-vantage index, so slicing a vantage's quota
// across shards cannot move a trace between batches.
func BatchFor(k, n int, batch2Fraction float64) topology.Batch {
	batch2 := int(float64(n) * batch2Fraction)
	if k >= n-batch2 {
		return topology.Batch2
	}
	return topology.Batch1
}

// --- traceroute campaign (Section 4.2) ----------------------------------

// PathObservation aliases the traceroute row type for campaign callers.
type PathObservation = traceroute.PathObservation

// TracerouteCampaignConfig sizes the path-transparency campaign.
type TracerouteCampaignConfig struct {
	// Vantages to trace from; nil means all.
	Vantages []string
	// TargetStride samples every Nth server (1 = all).
	TargetStride int
	// Parallelism bounds concurrent traceroutes per vantage (default 64).
	Parallelism int
	// Config is the per-trace configuration (ECT(0) probes by default).
	Config traceroute.Config
}

// RunTracerouteCampaign traces paths from the selected vantages to the
// sampled servers and returns all hop observations via done, vantage by
// vantage in world order, each path's rows in completion order. The
// slice handed to done is exactly sized and the caller's to keep.
//
// A steady-state sweep allocates that slice and nothing else: the
// traces run on each vantage's own long-lived Mux (recycled sessions),
// targets are read off the world's server list by stride, and the sweep
// shell — iteration state, bound-once callbacks and the buffer rows are
// staged in until their count is known — waits on the world
// (World.UserData) between sweeps, as the probe shells wait on their
// vantage. A row is copied once, from that buffer into the slice; a
// caller that reads no rows runs RunTracerouteCampaignNoRows instead.
func RunTracerouteCampaign(w *topology.World, cfg TracerouteCampaignConfig, done func([]PathObservation)) {
	runSweep(w, cfg, true, done)
}

// RunTracerouteCampaignNoRows runs RunTracerouteCampaign's sweep — the
// same probes, the same events, the same PRNG draws — for a caller that
// reads none of its rows: nothing is staged, and done runs when the
// sweep ends.
func RunTracerouteCampaignNoRows(w *topology.World, cfg TracerouteCampaignConfig, done func()) {
	runSweep(w, cfg, false, func([]PathObservation) { done() })
}

func runSweep(w *topology.World, cfg TracerouteCampaignConfig, keep bool, done func([]PathObservation)) {
	if cfg.TargetStride <= 0 {
		cfg.TargetStride = 1
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 64
	}
	// Take the shell off the world for the sweep's duration: a second
	// sweep started meanwhile (other vantages) builds its own.
	sw, _ := w.UserData.(*sweep)
	w.UserData = nil
	if sw == nil {
		sw = new(sweep)
		sw.onResult = sw.result
		sw.nextFn = sw.nextVantage
	}
	sw.w, sw.cfg, sw.keep, sw.done = w, cfg, keep, done
	sw.vi = -1

	// The paper ran its traceroute campaign separately from the
	// reachability traces; model that by clearing transient conditions
	// (vantage and flaky-server access loss) first. Persistent
	// middleboxes stay, of course — they are the measurement target.
	for _, s := range w.Servers {
		if s.Flaky {
			s.Host.Uplink().SetLossBoth(0)
		}
	}
	sw.nextVantage()
}

// stagingChunk is the sweep's staging granule in rows (48 KiB of
// 48-byte rows): a paper-scale vantage sweep stages about ten of them.
const stagingChunk = 1024

// sweep is one traceroute campaign's iteration state.
type sweep struct {
	w    *topology.World
	cfg  TracerouteCampaignConfig
	keep bool // stage rows; a sweep that keeps none hands done no rows
	done func([]PathObservation)

	vi      int               // index into w.Vantages of the vantage being swept
	v       *topology.Vantage // w.Vantages[vi]
	idx     int               // next target, an index into w.Servers
	pending int               // traceroutes in flight from v

	// rows observations of finished paths wait in chunks until the sweep
	// ends and their count is known. Fixed-size chunks, added as needed
	// and kept with the shell: staging never regrows (a slice that
	// doubled its way up would allocate several times what it ends up
	// holding), and a later sweep reuses what an earlier one left.
	chunks [][]PathObservation
	rows   int

	onResult func(traceroute.Result)
	nextFn   func()
}

// nextVantage starts the sweep from the next selected vantage, or ends
// the campaign after the last: the staged rows move into one exactly
// sized slice, the shell goes back on the world, done runs.
func (sw *sweep) nextVantage() {
	w := sw.w
	for sw.vi++; sw.vi < len(w.Vantages); sw.vi++ {
		v := w.Vantages[sw.vi]
		if len(sw.cfg.Vantages) != 0 && !slices.Contains(sw.cfg.Vantages, v.Name) {
			continue
		}
		v.Host.Uplink().SetLossBoth(0)
		sw.v, sw.idx, sw.pending = v, 0, 0
		sw.pump()
		return
	}
	out := make([]PathObservation, 0, sw.rows)
	for _, c := range sw.chunks {
		out = append(out, c[:min(len(c), sw.rows-len(out))]...)
	}
	done := sw.done
	sw.rows = 0
	sw.w, sw.v, sw.done, sw.cfg = nil, nil, nil, TracerouteCampaignConfig{}
	w.UserData = sw
	done(out)
}

// pump keeps Parallelism traceroutes in flight from the current vantage
// until its targets run out, then yields to the next vantage.
func (sw *sweep) pump() {
	servers := sw.w.Servers
	for sw.pending < sw.cfg.Parallelism && sw.idx < len(servers) {
		target := servers[sw.idx].Addr
		sw.idx += sw.cfg.TargetStride
		sw.pending++
		sw.v.Mux.Run(target, sw.cfg.Config, sw.onResult)
	}
	if sw.pending == 0 && sw.idx >= len(servers) {
		sw.w.Sim.After(0, sw.nextFn)
	}
}

// result flattens one finished path into the staging buffer, if the
// sweep keeps its rows — the Result's observations are the session's, on
// loan for this call — and starts the next.
func (sw *sweep) result(r traceroute.Result) {
	if sw.keep {
		for i := range r.Observations {
			c, at := sw.rows/stagingChunk, sw.rows%stagingChunk
			if c == len(sw.chunks) {
				sw.chunks = append(sw.chunks, make([]PathObservation, stagingChunk))
			}
			sw.chunks[c][at] = PathObservation{Vantage: sw.v.Name, Target: r.Target, Observation: r.Observations[i]}
			sw.rows++
		}
	}
	sw.pending--
	sw.pump()
}
