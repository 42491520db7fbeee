package main

// End to end: this test binary re-executed as ecnreport (TestMain) on a
// dataset campaign.Run writes in-process. Every artefact block it prints
// must equal the in-process analysis rendering of the same computation,
// -csv must write the same CSVs, and the world it rebuilds must be the
// one the dataset was measured on.
//
//	go test -v ./cmd/ecnreport

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceroute"
)

// childEnv marks a re-executed test binary as the ecnreport command.
const childEnv = "ECNREPORT_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const seed = 2015

// artefact is one -only key: the block ecnreport prints for it and the
// CSV it writes under -csv, if any.
type artefact struct {
	name, text string
	csv        string                // file name without .csv
	emit       func(io.Writer) error // writes that CSV
}

// artefacts computes every artefact of the small-world dataset d
// in-process, on the world ecnreport must rebuild for it.
func artefacts(t *testing.T, d *dataset.Dataset) []artefact {
	t.Helper()
	w := build(t, topology.SmallConfig())
	var obs []core.PathObservation
	core.RunTracerouteCampaign(w, core.TracerouteCampaignConfig{
		Config: traceroute.Config{ProbesPerHop: 1, StopAfterSilent: 2},
	}, func(o []core.PathObservation) { obs = o })
	w.Sim.Run()

	t1 := analysis.ComputeTable1(w.ServerAddrs(), w.Geo)
	f2a, f2b := analysis.ComputeFigure2a(d), analysis.ComputeFigure2b(d)
	f3a, f3b := analysis.ComputeFigure3a(d), analysis.ComputeFigure3b(d)
	f4 := analysis.ComputeFigure4([][]core.PathObservation{obs}, w.ASN)
	f5 := analysis.ComputeFigure5(d)
	f6 := analysis.ComputeFigure6(f5)
	t2 := analysis.ComputeTable2(d)
	return []artefact{
		{"table1", analysis.RenderTable1(t1), "table1",
			func(out io.Writer) error { return analysis.WriteTable1CSV(out, t1) }},
		{"fig1", analysis.RenderFigure1(analysis.ComputeFigure1(w.ServerAddrs(), w.Geo)), "", nil},
		{"fig2a", analysis.RenderFigure2(f2a,
			"Figure 2a: % of servers reachable by not-ECT UDP also reachable by ECT(0) UDP"), "figure2a",
			func(out io.Writer) error { return analysis.WriteFigure2CSV(out, f2a) }},
		{"fig2b", analysis.RenderFigure2(f2b,
			"Figure 2b: % of servers reachable by ECT(0) UDP also reachable by not-ECT UDP"), "figure2b",
			func(out io.Writer) error { return analysis.WriteFigure2CSV(out, f2b) }},
		{"fig3a", analysis.RenderFigure3(f3a,
			"Figure 3a: differential reachability (not-ECT yes, ECT(0) no)"), "figure3a",
			func(out io.Writer) error { return analysis.WriteFigure3CSV(out, f3a) }},
		{"fig3b", analysis.RenderFigure3(f3b,
			"Figure 3b: differential reachability (ECT(0) yes, not-ECT no)"), "figure3b",
			func(out io.Writer) error { return analysis.WriteFigure3CSV(out, f3b) }},
		{"fig4", analysis.RenderFigure4(f4), "figure4",
			func(out io.Writer) error { return analysis.WriteFigure4CSV(out, f4) }},
		{"fig5", analysis.RenderFigure5(f5), "figure5",
			func(out io.Writer) error { return analysis.WriteFigure5CSV(out, f5) }},
		{"fig6", analysis.RenderFigure6(f6), "figure6",
			func(out io.Writer) error { return analysis.WriteFigure6CSV(out, f6) }},
		{"table2", analysis.RenderTable2(t2), "table2",
			func(out io.Writer) error { return analysis.WriteTable2CSV(out, t2) }},
		{"prose", analysis.RenderProse(analysis.ComputeProse(d)), "", nil},
	}
}

// smallDataset is the small, 2-trace, seed-2015 spec's dataset, written
// to disk by campaign.Run in-process.
func smallDataset(t *testing.T) (*dataset.Dataset, string) {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(`{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Dataset, write(t, res.Dataset)
}

func TestArtefacts(t *testing.T) {
	d, path := smallDataset(t)
	arts := artefacts(t, d)
	var all strings.Builder
	for _, a := range arts {
		all.WriteString(a.text + "\n")
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			if got := ecnreport(t, 0, "-i", path, "-only", a.name); got != a.text+"\n" {
				t.Fatalf("ecnreport -only %s printed:\n%s\nwant:\n%s", a.name, got, a.text)
			}
		})
	}
	t.Run("typo", func(t *testing.T) {
		t.Parallel()
		names := make([]string, len(arts))
		for i, a := range arts {
			names[i] = a.name
		}
		stderr := ecnreport(t, 2, "-i", path, "-only", "fig2a,fgi2a")
		if !strings.Contains(stderr, `"fgi2a"`) || !strings.Contains(stderr, strings.Join(names, ",")) {
			t.Fatalf("ecnreport -only fgi2a said:\n%s\nwant the unknown name and the valid keys %s", stderr, strings.Join(names, ","))
		}
	})
	t.Run("all", func(t *testing.T) {
		t.Parallel()
		if got := ecnreport(t, 0, "-i", path); got != all.String() {
			t.Fatalf("ecnreport printed:\n%s\nwant every artefact in order:\n%s", got, all.String())
		}
	})
	t.Run("csv", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		ecnreport(t, 0, "-i", path, "-csv", dir)
		var want []string
		for _, a := range arts {
			if a.csv == "" {
				continue
			}
			want = append(want, a.csv+".csv")
			var csv bytes.Buffer
			if err := a.emit(&csv); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, filepath.Join(dir, a.csv+".csv")); !bytes.Equal(got, csv.Bytes()) {
				t.Fatalf("%s.csv:\n%s\nwant:\n%s", a.csv, got, csv.Bytes())
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		slices.Sort(want)
		if !slices.Equal(got, want) || len(got) != 9 {
			t.Fatalf("-csv wrote %v, want the nine %v", got, want)
		}
	})
}

// TestScale: the world ecnreport rebuilds is the one whose pool holds
// every server the dataset observed; a dataset that fits no world is
// refused with an address it lacks.
func TestScale(t *testing.T) {
	small, paper := build(t, topology.SmallConfig()), build(t, topology.DefaultConfig())
	foreign := packet.AddrFrom4(192, 0, 2, 1)
	table1 := func(w *topology.World) string {
		return analysis.RenderTable1(analysis.ComputeTable1(w.ServerAddrs(), w.Geo)) + "\n"
	}
	for _, row := range []struct {
		name    string
		servers []packet.Addr
		want    string   // Table 1, when the dataset fits a world
		errs    []string // what the refusal names, when it fits none
	}{
		{"small", small.ServerAddrs()[:3], table1(small), nil},
		{"paper", paper.ServerAddrs()[:3], table1(paper), nil},
		{"foreign", []packet.Addr{foreign}, "", []string{
			"the small world has no server " + foreign.String(),
			"the paper world has no server " + foreign.String()}},
		{"mixed", []packet.Addr{small.Servers[0].Addr, paper.Servers[0].Addr}, "", []string{
			"the small world has no server " + paper.Servers[0].Addr.String(),
			"the paper world has no server " + small.Servers[0].Addr.String()}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			obs := make([]dataset.Observation, len(row.servers))
			for i, a := range row.servers {
				obs[i] = dataset.Observation{Server: a, UDPReachable: true}
			}
			path := write(t, &dataset.Dataset{Traces: []dataset.Trace{
				{Vantage: "EC2 Tokyo", Batch: 1, Observations: obs}}})
			if row.errs == nil {
				if got := ecnreport(t, 0, "-i", path, "-only", "table1"); got != row.want {
					t.Fatalf("Table 1:\n%s\nwant:\n%s", got, row.want)
				}
				return
			}
			stderr := ecnreport(t, 1, "-i", path, "-only", "table1")
			for _, e := range row.errs {
				if !strings.Contains(stderr, e) {
					t.Fatalf("stderr %q lacks %q", stderr, e)
				}
			}
		})
	}
}

// ecnreport runs the command with args, which must exit with code, and
// returns its stdout; when code is not 0 it must print nothing there,
// and its stderr is returned.
func ecnreport(t *testing.T, code int, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	if got := cmd.ProcessState.ExitCode(); got != code {
		t.Fatalf("ecnreport %s exited %d, want %d; stderr:\n%s", strings.Join(args, " "), got, code, stderr.String())
	}
	if code != 0 {
		if stdout.Len() != 0 {
			t.Fatalf("ecnreport %s exited %d after printing:\n%s", strings.Join(args, " "), code, stdout.String())
		}
		return stderr.String()
	}
	return stdout.String()
}

func build(t *testing.T, cfg topology.Config) *topology.World {
	t.Helper()
	w, err := topology.Build(netsim.NewSim(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func write(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.Write(f, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
