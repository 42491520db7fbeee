package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/aqm"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ecn"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// The kernels measure each layer from outside its package, through
// public functions only, at fixed iteration counts. They run in their
// own child process before any workload, so they see a clean heap.

// kernelResult is what the kernel child reports to the parent.
type kernelResult struct {
	Metrics  map[string]float64 `json:"metrics"`
	Failures []string           `json:"failures,omitempty"`
}

func (k *kernelResult) failf(format string, args ...any) {
	k.Failures = append(k.Failures, fmt.Sprintf(format, args...))
}

// timeOp runs fn n times, three rounds after a warm-up tenth, and
// returns the median round's ns/op and the allocations per op.
func timeOp(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	var rounds []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < 3; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&after)
	return median(rounds), float64(after.Mallocs-before.Mallocs) / float64(3*n)
}

// timeOnce times one call in milliseconds, median of rounds calls.
func timeOnce(rounds int, fn func()) float64 {
	var samples []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		fn()
		samples = append(samples, ms(time.Since(start)))
	}
	return median(samples)
}

// scale shrinks an iteration count on quick runs.
func scale(quick bool, n int) int {
	if quick {
		if n /= 100; n < 10 {
			n = 10
		}
	}
	return n
}

// runKernels runs every layer kernel. seed derives the campaign the
// wire, dataset and ingest kernels operate on.
func runKernels(seed int64, quick bool, outDir string) *kernelResult {
	k := &kernelResult{Metrics: make(map[string]float64)}
	kernelPacket(k, quick)
	kernelSched(k, quick)
	if err := kernelForward(k, quick); err != nil {
		k.failf("netsim forward kernel: %v", err)
	}
	if err := kernelAQM(k, quick); err != nil {
		k.failf("aqm kernel: %v", err)
	}
	if err := kernelWorld(k, seed, quick); err != nil {
		k.failf("topology/core kernel: %v", err)
	}
	if err := kernelWire(k, seed, quick, outDir); err != nil {
		k.failf("campaign wire kernel: %v", err)
	}
	return k
}

var kernelSink uint64

// kernelPacket: the per-packet primitives on a 48-byte-payload UDP
// datagram (NTP-sized: the campaign's commonest packet), plus the
// checksum on a full-size frame.
func kernelPacket(k *kernelResult, quick bool) {
	src, dst := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 48)
	template, err := packet.BuildUDP(src, dst, 40000, 123, 255, ecn.ECT0, 1, payload)
	if err != nil {
		k.failf("packet kernel: %v", err)
		return
	}
	wire := append([]byte(nil), template...)
	n := scale(quick, 2_000_000)
	var maxAllocs float64
	run := func(name string, fn func(i int)) {
		ns, allocs := timeOp(n, fn)
		k.Metrics[name] = ns
		if allocs > maxAllocs {
			maxAllocs = allocs
		}
	}
	run("packet.build_udp_ns", func(i int) {
		bf, err := packet.BuildUDPBuf(src, dst, 123, 123, 64, ecn.ECT0, uint16(i), payload)
		if err == nil {
			bf.Release()
		}
	})
	run("packet.parse_ipv4_ns", func(int) {
		h, _, _ := packet.ParseIPv4(wire)
		kernelSink += uint64(h.TTL)
	})
	// The host receive path: IPv4 parse, then UDP parse with checksum
	// verification (packet.Decode is the analysis-side convenience and
	// allocates).
	run("packet.decode_udp_ns", func(int) {
		if ip, body, err := packet.ParseIPv4(wire); err == nil {
			u, _, _ := packet.ParseUDP(body, ip.Src, ip.Dst)
			kernelSink += uint64(u.DstPort)
		}
	})
	run("packet.set_ecn_ns", func(i int) {
		cp := ecn.ECT0
		if i&1 == 1 {
			cp = ecn.CE
		}
		_ = packet.SetWireECN(wire, cp)
	})
	run("packet.dec_ttl_ns", func(int) {
		if ttl, _ := packet.DecrementWireTTL(wire); ttl <= 1 {
			copy(wire, template)
		}
	})
	frame := make([]byte, 1500)
	for i := range frame {
		frame[i] = byte(i)
	}
	run("packet.checksum_1500_ns", func(int) { kernelSink += uint64(packet.Checksum(frame)) })
	k.Metrics["packet.allocs_per_op"] = maxAllocs
	// Not on quick runs: they exist for the race-enabled test, and the
	// race detector makes sync.Pool drop buffers on purpose.
	if !quick && maxAllocs >= 0.01 {
		k.failf("packet.allocs_per_op = %.3f, the packet path must not allocate", maxAllocs)
	}
}

// kernelSched: the scheduler on the repository's two shared kernels
// (dense mixed near/far timers; sparse timeline), timing wheel.
func kernelSched(k *kernelResult, quick bool) {
	n := scale(quick, 2_000_000)
	for name, kernel := range map[string]func(*netsim.Sim, int){
		"netsim.sched_ns_per_event":        netsim.ScheduleBenchWorkload,
		"netsim.sched_sparse_ns_per_event": netsim.ScheduleBenchWorkloadSparse,
	} {
		var rounds []float64
		for r := 0; r < 3; r++ {
			s := netsim.NewSim(1)
			kernel(s, 4096) // warm the slab and free list
			start := time.Now()
			kernel(s, n)
			rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		k.Metrics[name] = median(rounds)
	}
}

// kernelForward: bare forwarding at the smallest packet the campaign
// sends. One host sends 48-byte UDP datagrams through a chain of five
// routers to another host; no loss, no queues, no middleboxes.
func kernelForward(k *kernelResult, quick bool) error {
	const routers = 5
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	chain := make([]*netsim.Router, routers)
	for i := range chain {
		chain[i] = net.AddRouter(fmt.Sprintf("r%d", i), packet.AddrFrom4(10, 1, byte(i), 1), 64500+uint32(i))
		if i > 0 {
			net.Connect(chain[i-1], chain[i], time.Millisecond, 0)
		}
	}
	a, err := net.AddHost("a", packet.AddrFrom4(10, 2, 0, 1))
	if err != nil {
		return err
	}
	b, err := net.AddHost("b", packet.AddrFrom4(10, 3, 0, 1))
	if err != nil {
		return err
	}
	if _, err := net.Attach(a, chain[0], time.Millisecond, 0); err != nil {
		return err
	}
	if _, err := net.Attach(b, chain[routers-1], time.Millisecond, 0); err != nil {
		return err
	}
	if err := net.ComputeRoutes(); err != nil {
		return err
	}
	delivered := 0
	if _, err := b.BindUDP(123, func(*netsim.Host, packet.IPv4Header, packet.UDPHeader, []byte) { delivered++ }); err != nil {
		return err
	}
	payload := make([]byte, 48)
	const burst = 64
	send := func(packets int) error {
		for sent := 0; sent < packets; sent += burst {
			for i := 0; i < burst; i++ {
				if err := a.SendUDP(b.Addr(), 40000, 123, 64, ecn.ECT0, payload); err != nil {
					return err
				}
			}
			sim.Run()
		}
		return nil
	}
	n := scale(quick, 400_000) / burst * burst
	if err := send(n / 10); err != nil { // warm the pools
		return err
	}
	delivered = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := sim.Executed()
	start := time.Now()
	if err := send(n); err != nil {
		return err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if delivered != n {
		return fmt.Errorf("%d of %d packets delivered", delivered, n)
	}
	k.Metrics["netsim.forward_ns_per_hop"] = float64(elapsed.Nanoseconds()) / float64(n*routers)
	k.Metrics["netsim.forward_events_per_pkt"] = float64(sim.Executed()-events) / float64(n)
	k.Metrics["netsim.forward_allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}

// kernelAQM: the pooled enqueue → mark → dequeue path of each
// discipline under saturation (the shape cmd/benchreport's aqm rows
// and BenchmarkCEMarkThroughput use).
func kernelAQM(k *kernelResult, quick bool) error {
	template, err := packet.BuildUDP(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		40000, 123, 64, ecn.ECT0, 1, make([]byte, 480))
	if err != nil {
		return err
	}
	ring := make([]*packet.Buf, 64)
	for i := range ring {
		ring[i] = packet.NewBuf()
		ring[i].Write(template)
	}
	n := scale(quick, 1_000_000)
	var maxAllocs float64
	for _, name := range []string{"red", "codel", "droptail"} {
		q, err := aqm.New(name, 50, rand.New(rand.NewSource(2015)))
		if err != nil {
			return err
		}
		now := time.Duration(0)
		ns, allocs := timeOp(n, func(i int) {
			bf := ring[i&63]
			_ = packet.SetWireECN(bf.Bytes(), ecn.ECT0)
			q.Enqueue(now, aqm.NewPacket(bf.Retain()))
			if q.Len() > 30 {
				if p, ok := q.Dequeue(now); ok {
					p.TakeBuf().Release()
				}
			}
			now += 200 * time.Microsecond
		})
		k.Metrics["aqm."+name+"_ns_per_pkt"] = ns
		if allocs > maxAllocs {
			maxAllocs = allocs
		}
	}
	k.Metrics["aqm.allocs_per_op"] = maxAllocs
	return nil
}

// heapMB reads the live heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// kernelWorld: the world's fixed costs (compile once per campaign,
// instantiate once per shard) and, on one instantiated paper world
// from one vantage, the probe state machines: a full trace over the
// pool (ntp, httpmin, tcpsim) and a traceroute sweep.
func kernelWorld(k *kernelResult, seed int64, quick bool) error {
	paper, small := topology.DefaultConfig(), topology.SmallConfig()
	if quick {
		paper = small
	}
	rounds := 5
	if quick {
		rounds = 1
	}
	var bp *topology.Blueprint
	var err error
	k.Metrics["topology.compile_ms"] = timeOnce(rounds, func() {
		if b, cerr := topology.Compile(paper, seed); cerr != nil {
			err = cerr
		} else {
			bp = b
		}
	})
	if err != nil {
		return err
	}
	smallBP, err := topology.Compile(small, seed)
	if err != nil {
		return err
	}
	k.Metrics["topology.instantiate_small_ms"] = timeOnce(rounds, func() {
		if _, ierr := smallBP.Instantiate(netsim.NewSim(seed)); ierr != nil {
			err = ierr
		}
	})
	if err != nil {
		return err
	}

	var w *topology.World
	var sim *netsim.Sim
	base := heapMB()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Metrics["topology.instantiate_ms"] = timeOnce(rounds, func() {
		sim = netsim.NewSim(seed)
		if w, err = bp.Instantiate(sim); err != nil {
			return
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	k.Metrics["topology.instantiate_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(rounds)
	k.Metrics["topology.world_heap_mb"] = heapMB() - base

	v := w.Vantages[0]
	servers := w.ServerAddrs()
	traces := 3
	if quick {
		traces = 1
	}
	var traceMS, traceEvents []float64
	runtime.ReadMemStats(&before)
	for t := 0; t < traces; t++ {
		sim.Reseed(campaign.TraceSeed(seed, 0, t))
		w.ResetTransientState()
		w.ApplyTraceConditions(v, topology.Batch1, sim.RNG())
		done := false
		events := sim.Executed()
		start := time.Now()
		core.RunTrace(v, servers, topology.Batch1, t, func(dataset.Trace) { done = true })
		sim.Run()
		traceMS = append(traceMS, ms(time.Since(start)))
		traceEvents = append(traceEvents, float64(sim.Executed()-events))
		if !done {
			return fmt.Errorf("trace %d did not complete", t)
		}
	}
	runtime.ReadMemStats(&after)
	k.Metrics["core.trace_ms"] = median(traceMS)
	k.Metrics["core.trace_events"] = median(traceEvents)
	k.Metrics["core.trace_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(traces)

	w.ResetTransientState()
	swept := false
	events := sim.Executed()
	start := time.Now()
	core.RunTracerouteCampaign(w, core.TracerouteCampaignConfig{
		Vantages:     []string{v.Name},
		TargetStride: 3,
		Config:       traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
	}, func([]core.PathObservation) { swept = true })
	sim.Run()
	k.Metrics["core.sweep_ms"] = ms(time.Since(start))
	k.Metrics["core.sweep_events"] = float64(sim.Executed() - events)
	if !swept {
		return fmt.Errorf("traceroute sweep did not complete")
	}
	return nil
}

// kernelWire computes the paper-direct campaign's 13 shard results
// once, as a worker would (CompileBlueprint + ExecuteShard), checks
// that their merge hashes to the paper-direct golden, and measures
// what the distributed path does to them: wire encode/decode, gzip,
// merge, dataset encode/decode, and coordinator ingest.
func kernelWire(k *kernelResult, seed int64, quick bool, outDir string) error {
	o := repOptions{Workload: wlDistributed, Seed: seed, Quick: quick, OutDir: outDir}
	spec := paperSpec(o)
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		return err
	}
	plan := cfg.Shards()
	wires := make([]*campaign.ShardResultWire, len(plan))
	errs := make([]error, len(plan))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < concurrency(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				wires[i], errs[i] = campaign.ExecuteShard(cfg, bp, plan[i].Shard, plan[i].Slice)
			}
		}()
	}
	for i := range plan {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var merged *campaign.Result
	k.Metrics["campaign.merge_wire_ms"] = timeOnce(3, func() { merged, err = campaign.MergeWire(wires) })
	if err != nil {
		return err
	}
	var encoded bytes.Buffer
	if err := dataset.Write(&encoded, merged.Dataset); err != nil {
		return err
	}
	hash := fmt.Sprintf("%x", sha256.Sum256(encoded.Bytes()))
	if want := loadGolden().DatasetSHA256[wlDirect]; !quick && seed == goldenSeed && hash != want {
		k.failf("hash mismatch: MergeWire of the kernel's wires %s, paper-direct golden %s", short(hash), short(want))
	}

	// Wire encode/decode and gzip, shard by shard as a worker uploads.
	raws := make([][]byte, len(wires))
	var rawBytes, gzBytes int
	start := time.Now()
	for i, w := range wires {
		if raws[i], err = json.Marshal(w); err != nil {
			return err
		}
		rawBytes += len(raws[i])
	}
	marshal := time.Since(start)
	start = time.Now()
	for _, raw := range raws {
		var w campaign.ShardResultWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return err
		}
	}
	unmarshal := time.Since(start)
	for _, raw := range raws {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		gzBytes += buf.Len()
	}
	k.Metrics["campaign.wire_bytes"] = float64(rawBytes)
	k.Metrics["campaign.wire_gzip_bytes"] = float64(gzBytes)
	k.Metrics["campaign.wire_marshal_mb_s"] = float64(rawBytes) / 1e6 / marshal.Seconds()
	k.Metrics["campaign.wire_unmarshal_mb_s"] = float64(rawBytes) / 1e6 / unmarshal.Seconds()

	// Dataset encode/decode on the merged dataset.
	size := float64(encoded.Len())
	writeMS := timeOnce(3, func() { err = dataset.Write(io.Discard, merged.Dataset) })
	if err != nil {
		return err
	}
	readMS := timeOnce(3, func() { _, err = dataset.Read(bytes.NewReader(encoded.Bytes())) })
	if err != nil {
		return err
	}
	observations := 0
	for i := range merged.Dataset.Traces {
		observations += len(merged.Dataset.Traces[i].Observations)
	}
	k.Metrics["dataset.write_mb_s"] = size / 1e6 / (writeMS / 1e3)
	k.Metrics["dataset.read_mb_s"] = size / 1e6 / (readMS / 1e3)
	k.Metrics["dataset.bytes_per_obs"] = size / float64(observations)

	return kernelIngest(k, o, spec, plan, wires, hash)
}

// kernelIngest pushes the precomputed wires into a fresh coordinator
// through W bare Claim/PushShardResult loops, three times: coordinator
// replay without the simulation. Scored on CPU and bytes;
// ingest_wall_s is fsync-bound and diagnostic only.
func kernelIngest(k *kernelResult, o repOptions, spec campaign.Spec, plan []campaign.ShardInfo,
	wires []*campaign.ShardResultWire, wantHash string) error {
	byShard := make(map[[2]int]*campaign.ShardResultWire, len(wires))
	for i, w := range wires {
		byShard[[2]int{plan[i].Shard, plan[i].Slice}] = w
	}
	rounds := 3
	if o.Quick {
		rounds = 1
	}
	var cpu, alloc, wall []float64
	for r := 0; r < rounds; r++ {
		reading, gotHash, err := ingestOnce(o, spec, byShard)
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		if gotHash != wantHash {
			k.failf("hash mismatch: ingested dataset %s, merged wires %s", short(gotHash), short(wantHash))
		}
		cpu = append(cpu, reading[mCPU])
		alloc = append(alloc, reading[mAlloc])
		wall = append(wall, reading[mWall])
	}
	k.Metrics["server.ingest_cpu_s"] = median(cpu)
	k.Metrics["server.ingest_alloc_mb"] = median(alloc)
	k.Metrics["server.ingest_wall_s"] = median(wall)
	return nil
}

// ingestOnce runs one ingest round: submit the distributed spec, let
// W uploaders claim and push until nothing is pending, await the job.
// It returns the meter's reading and the hash the coordinator filed.
func ingestOnce(o repOptions, spec campaign.Spec, byShard map[[2]int]*campaign.ShardResultWire) (map[string]float64, string, error) {
	svc, err := startService(o, nil)
	if err != nil {
		return nil, "", err
	}
	defer svc.stop()
	ctx := context.Background()
	client := svc.client(actorSubmitter)
	reading := make(map[string]float64)
	m := startMeter()
	job, _, err := client.Submit(ctx, spec)
	if err != nil {
		return nil, "", err
	}
	errs := make([]error, concurrency())
	var wg sync.WaitGroup
	for u := range errs {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			id := fmt.Sprintf("bench-u%d", u)
			for {
				claim, err := client.Claim(ctx, job.ID, id, 2)
				if err != nil || len(claim.Shards) == 0 {
					errs[u] = err
					return
				}
				for _, sh := range claim.Shards {
					w := *byShard[[2]int{sh.Shard, sh.Slice}]
					w.SpecHash = claim.SpecHash
					if _, err := client.PushShardResult(ctx, job.ID, sh.Index, id, sh.Lease, &w); err != nil {
						errs[u] = err
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, "", fmt.Errorf("uploader: %w", err)
		}
	}
	if _, err := client.AwaitJob(ctx, job.ID, pollInterval); err != nil {
		return nil, "", err
	}
	m.stop(reading)
	report, err := client.JobReport(ctx, job.ID)
	if err != nil {
		return nil, "", err
	}
	return reading, report.DatasetSHA256, nil
}
