// Command ecnreport reads an ecnspider dataset and regenerates the
// paper's figures and tables (Figures 2a/2b/3a/3b/5/6, Table 2). Table 1
// and Figures 1/4 need world context (geo database, traceroutes), so
// ecnreport also regenerates the world the dataset was measured on and
// produces them too.
//
// The world's scale is read off the dataset: the small and paper pools
// share no address, so it is the scale whose pool holds every observed
// server, and a dataset that fits neither is refused. The seed cannot be
// read off it — server addresses do not depend on the seed — so -seed
// must name the campaign's.
//
// Usage:
//
//	ecnreport [-i dataset.jsonl] [-seed N] [-only fig2a,table2,...] [-csv dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// artefactKeys are the names -only selects from, in the order they print.
var artefactKeys = []string{"table1", "fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6", "table2", "prose"}

func main() {
	var (
		in     = flag.String("i", "dataset.jsonl", "input dataset (- for stdin)")
		seed   = flag.Int64("seed", 2015, "seed used to build the world (for table1/fig1/fig4)")
		only   = flag.String("only", "", "comma-separated subset: "+strings.Join(artefactKeys, ","))
		csvDir = flag.String("csv", "", "also write <artefact>.csv files into this directory")
	)
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(artefactKeys, k) {
				fmt.Fprintf(os.Stderr, "ecnreport: -only: unknown artefact %q; valid: %s\n", k, strings.Join(artefactKeys, ","))
				os.Exit(2)
			}
			want[k] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("open %s: %v", *in, err)
		}
		defer func() { _ = f.Close() }() // read-only; close errors carry no data
		r = f
	}
	d, err := dataset.Read(r)
	if err != nil {
		fatal("read dataset: %v", err)
	}

	// World-dependent artefacts share the generation seed.
	needWorld := sel("table1") || sel("fig1") || sel("fig4")
	var world *topology.World
	if needWorld {
		if world, err = rebuildWorld(d, *seed); err != nil {
			fatal("%v", err)
		}
	}

	// writeCSV emits an artefact's CSV beside the textual rendering.
	writeCSV := func(name string, emit func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		path := *csvDir + string(os.PathSeparator) + name + ".csv"
		f, err := os.Create(path)
		if err != nil {
			fatal("create %s: %v", path, err)
		}
		if err := emit(f); err != nil {
			fatal("write %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fatal("close %s: %v", path, err)
		}
	}

	if sel("table1") {
		t1 := analysis.ComputeTable1(world.ServerAddrs(), world.Geo)
		fmt.Println(analysis.RenderTable1(t1))
		writeCSV("table1", func(w *os.File) error { return analysis.WriteTable1CSV(w, t1) })
	}
	if sel("fig1") {
		fmt.Println(analysis.RenderFigure1(analysis.ComputeFigure1(world.ServerAddrs(), world.Geo)))
	}
	if sel("fig2a") {
		f2 := analysis.ComputeFigure2a(d)
		fmt.Println(analysis.RenderFigure2(f2,
			"Figure 2a: % of servers reachable by not-ECT UDP also reachable by ECT(0) UDP"))
		writeCSV("figure2a", func(w *os.File) error { return analysis.WriteFigure2CSV(w, f2) })
	}
	if sel("fig2b") {
		f2 := analysis.ComputeFigure2b(d)
		fmt.Println(analysis.RenderFigure2(f2,
			"Figure 2b: % of servers reachable by ECT(0) UDP also reachable by not-ECT UDP"))
		writeCSV("figure2b", func(w *os.File) error { return analysis.WriteFigure2CSV(w, f2) })
	}
	if sel("fig3a") {
		f3 := analysis.ComputeFigure3a(d)
		fmt.Println(analysis.RenderFigure3(f3,
			"Figure 3a: differential reachability (not-ECT yes, ECT(0) no)"))
		writeCSV("figure3a", func(w *os.File) error { return analysis.WriteFigure3CSV(w, f3) })
	}
	if sel("fig3b") {
		f3 := analysis.ComputeFigure3b(d)
		fmt.Println(analysis.RenderFigure3(f3,
			"Figure 3b: differential reachability (ECT(0) yes, not-ECT no)"))
		writeCSV("figure3b", func(w *os.File) error { return analysis.WriteFigure3CSV(w, f3) })
	}
	if sel("fig4") {
		var obs []core.PathObservation
		core.RunTracerouteCampaign(world, core.TracerouteCampaignConfig{
			Config: traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
		}, func(o []core.PathObservation) { obs = o })
		world.Sim.Run()
		f4 := analysis.ComputeFigure4([][]core.PathObservation{obs}, world.ASN)
		fmt.Println(analysis.RenderFigure4(f4))
		writeCSV("figure4", func(w *os.File) error { return analysis.WriteFigure4CSV(w, f4) })
	}
	f5 := analysis.ComputeFigure5(d)
	if sel("fig5") {
		fmt.Println(analysis.RenderFigure5(f5))
		writeCSV("figure5", func(w *os.File) error { return analysis.WriteFigure5CSV(w, f5) })
	}
	if sel("fig6") {
		f6 := analysis.ComputeFigure6(f5)
		fmt.Println(analysis.RenderFigure6(f6))
		writeCSV("figure6", func(w *os.File) error { return analysis.WriteFigure6CSV(w, f6) })
	}
	if sel("table2") {
		t2 := analysis.ComputeTable2(d)
		fmt.Println(analysis.RenderTable2(t2))
		writeCSV("table2", func(w *os.File) error { return analysis.WriteTable2CSV(w, t2) })
	}
	if sel("prose") {
		fmt.Println(analysis.RenderProse(analysis.ComputeProse(d)))
	}
}

// rebuildWorld regenerates the world d was measured on: the first scale
// whose pool holds every server d observed.
func rebuildWorld(d *dataset.Dataset, seed int64) (*topology.World, error) {
	servers := d.Servers()
	var lacks []string
	for _, scale := range []struct {
		name string
		cfg  topology.Config
	}{{"small", topology.SmallConfig()}, {"paper", topology.DefaultConfig()}} {
		bp, err := topology.Compile(scale.cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("rebuild %s world: %w", scale.name, err)
		}
		w := bp.TakeSpare(seed)
		i := slices.IndexFunc(servers, func(a packet.Addr) bool { _, ok := w.ServerByAddr(a); return !ok })
		if i < 0 {
			return w, nil
		}
		lacks = append(lacks, fmt.Sprintf("the %s world has no server %s", scale.name, servers[i]))
	}
	return nil, fmt.Errorf("dataset fits no world: %s", strings.Join(lacks, ", "))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecnreport: "+format+"\n", args...)
	os.Exit(1)
}
