// Command ecnspider runs the full measurement campaign of McQuistin &
// Perkins, "Is Explicit Congestion Notification usable with UDP?" (IMC
// 2015) over a generated Internet: pool discovery via DNS, then the
// four-measurement trace (UDP ±ECT(0), TCP ±ECN) from each vantage
// point, writing the dataset as JSON lines.
//
// The campaign is sharded into (vantage, slice) units — each vantage's
// trace quota split into -slices contiguous blocks — and runs shards in
// parallel on -workers goroutines; the merged dataset is byte-identical
// for any worker count and any slice count.
//
// Usage:
//
//	ecnspider [-seed N] [-scale paper|small] [-scenario name] [-traces N] [-workers N] [-slices N] [-discover] [-o dataset.jsonl]
//
// Campaign knobs come from the shared campaign flag surface
// (campaign.BindSpecFlags): explicit flags override the REPRO_*
// environment, which overrides the tool defaults (small scale, 2 traces
// per vantage; -scale paper without -traces runs the paper's 210-trace
// plan). -scenario selects the congestion scenario (uncongested, the
// default; congested-edge; congested-transit) — congested runs append a
// CE-mark report to stderr. -slices N lifts campaign parallelism past
// the 13 vantage points (13×N shards). -cpuprofile/-memprofile write
// pprof profiles of the campaign for hot-path work. The campaign always
// runs on the production engine (timing wheel, lazy cross-traffic
// replay); the differential oracles are swept by cmd/determinism.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/capture"
	"repro/internal/dataset"
	"repro/internal/topology"
)

func main() {
	base := campaign.DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 0 // ecnspider reproduces the dataset; no traceroute sweep
	spec := campaign.BindSpecFlags(flag.CommandLine, campaign.FlagOptions{Base: base})
	var (
		out      = flag.String("o", "dataset.jsonl", "output dataset path (- for stdout)")
		pcapPath = flag.String("pcap", "", "capture the first shard's vantage traffic to this pcap file (last 100k packets)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf  = flag.String("memprofile", "", "write a post-campaign heap profile to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal("create %s: %v", *cpuProf, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("start cpu profile: %v", err)
		}
		// fatal exits via os.Exit, which skips defers — register the
		// flush with it too, so a profile of a failing run is readable.
		stopProfile = pprof.StopCPUProfile
		defer pprof.StopCPUProfile()
	}

	s, err := spec.Resolve()
	if err != nil {
		fatal("%v", err)
	}
	// The 2-traces default belongs to the small world; at paper scale an
	// untouched -traces means the full 210-trace plan, as it always has.
	if spec.Source("traces") == campaign.SourceDefault && s.Scale == "paper" {
		s.Traces = 0
	}
	cfg, err := s.Config()
	if err != nil {
		fatal("%v", err)
	}

	// Optional tcpdump-style capture, like the parallel capture sessions
	// the paper ran beside its prober. With the campaign sharded per
	// vantage, the tap attaches to the first shard's probing host.
	var recorder *capture.Recorder
	if *pcapPath != "" {
		recorder = capture.NewRecorder(100_000)
		first := true
		cfg.ShardHook = func(shard int, vantage string, w *topology.World) {
			if !first {
				return
			}
			first = false
			if v, ok := w.VantageByName(vantage); ok {
				v.Host.AddTap(recorder.Tap)
			}
		}
		// A single worker keeps the tapped shard's packet order exactly
		// reproducible; the dataset itself never depends on workers.
		if cfg.Workers != 1 {
			fmt.Fprintln(os.Stderr, "ecnspider: -pcap forces -workers=1 for a reproducible capture")
		}
		cfg.Workers = 1
	}

	start := time.Now()
	res, err := campaign.Run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "world: %s\n", res.World)
	var virtual time.Duration
	for _, s := range res.Shards {
		if s.VirtualTime > virtual {
			virtual = s.VirtualTime
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: %d traces over %d servers in %d shards, %d events, %v virtual, %.2fs real\n",
		len(res.Dataset.Traces), len(res.Servers), len(res.Shards), res.Events,
		virtual.Round(time.Second), time.Since(start).Seconds())
	if res.PhantomEvents > 0 || res.ReplayedBoundaries > 0 {
		fmt.Fprintf(os.Stderr, "cross-traffic: %d phantom boundary events, %d boundaries replayed without events\n",
			res.PhantomEvents, res.ReplayedBoundaries)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal("create %s: %v", *memProf, err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("write heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("close %s: %v", *memProf, err)
		}
	}
	if len(res.Congestion) > 0 {
		fmt.Fprint(os.Stderr, analysis.RenderCEMarkReport(analysis.ComputeCEMarkReport(res.Congestion)))
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("create %s: %v", *out, err)
		}
		w = f
	}
	if err := dataset.Write(w, res.Dataset); err != nil {
		fatal("write dataset: %v", err)
	}
	if *out != "-" {
		if err := w.Close(); err != nil {
			fatal("close %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "dataset written to %s\n", *out)
	}

	if recorder != nil {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fatal("create %s: %v", *pcapPath, err)
		}
		if err := capture.WritePcap(f, recorder.Records()); err != nil {
			fatal("write pcap: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("close %s: %v", *pcapPath, err)
		}
		fmt.Fprintf(os.Stderr, "pcap: %d packets written to %s (%d displaced by ring)\n",
			recorder.Len(), *pcapPath, recorder.Overwritten())
	}
}

// stopProfile flushes an active CPU profile before a fatal exit.
var stopProfile func()

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecnspider: "+format+"\n", args...)
	if stopProfile != nil {
		stopProfile()
	}
	os.Exit(1)
}
