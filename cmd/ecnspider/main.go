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
// The campaign flags bind straight onto the tool's base campaign.Spec
// (small scale, 2 traces per vantage, no traceroute sweep): a flag the
// command line sets overrides it, and -scale paper without -traces
// runs the paper's 210-trace plan. -scenario selects
// the congestion scenario (uncongested, the default; congested-edge;
// congested-transit) — congested runs append a CE-mark report to
// stderr. -slices N lifts campaign parallelism past the 13 vantage
// points (13×N shards). -cpuprofile/-memprofile write
// pprof profiles of the campaign for hot-path work.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/capture"
	"repro/internal/dataset"
	"repro/internal/topology"
)

func main() {
	spec := bindSpec(flag.CommandLine)
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

	s, err := resolveSpec(flag.CommandLine, spec)
	if err != nil {
		fatal("%v", err)
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

// bindSpec registers the campaign flags straight onto ecnspider's base
// spec — the small world, 2 traces per vantage and no traceroute sweep
// (ecnspider reproduces the dataset) — so each flag's default is the
// base value. Call resolveSpec after fs.Parse.
func bindSpec(fs *flag.FlagSet) *campaign.Spec {
	s := campaign.DefaultSpec()
	s.Scale = "small"
	s.Traces = 2
	s.Stride = 0
	fs.Int64Var(&s.Seed, "seed", s.Seed, "campaign seed (same seed → identical dataset)")
	fs.StringVar(&s.Scale, "scale", s.Scale, "world scale: paper (2500 servers) or small (120)")
	fs.StringVar(&s.Scenario, "scenario", s.Scenario,
		"congestion scenario: "+strings.Join(campaign.Scenarios(), ", "))
	fs.IntVar(&s.Traces, "traces", s.Traces, "traces per vantage; 0 = the paper 210-trace plan")
	fs.IntVar(&s.Stride, "stride", s.Stride, "traceroute sampling: every Nth server, 0 disables")
	fs.BoolVar(&s.Discover, "discover", s.Discover, "enumerate servers via pool DNS before probing")
	fs.IntVar(&s.Workers, "workers", s.Workers, "parallel shard workers, 0 = GOMAXPROCS")
	fs.IntVar(&s.SlicesPerVantage, "slices", s.SlicesPerVantage, "sub-vantage slices per vantage")
	return &s
}

// resolveSpec validates the spec fs was parsed onto. The 2-traces
// default belongs to the small world: at paper scale an untouched
// -traces means the paper's full 210-trace plan.
func resolveSpec(fs *flag.FlagSet, spec *campaign.Spec) (campaign.Spec, error) {
	s := *spec
	tracesSet := false
	fs.Visit(func(f *flag.Flag) { tracesSet = tracesSet || f.Name == "traces" })
	if !tracesSet && s.Scale == "paper" {
		s.Traces = 0
	}
	return s, s.Validate()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecnspider: "+format+"\n", args...)
	if stopProfile != nil {
		stopProfile()
	}
	os.Exit(1)
}
