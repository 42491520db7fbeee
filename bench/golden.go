package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
)

// goldenSeed is the seed golden.json's hashes were taken at. On any
// other seed the golden comparison is skipped; the self-consistency
// checks (repetitions hash alike, trace count = plan, cached flags) and
// the tolerance checks remain.
const goldenSeed = 2015

// goldenPath is where -update-golden rewrites the file, relative to
// the repository root (the directory `go run ./bench` runs from).
const goldenPath = "bench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// tolerance is one checked value: the paper's (or the model's) figure
// and how far a run may sit from it.
type tolerance struct {
	Want float64 `json:"want"`
	Tol  float64 `json:"tolerance"`
}

func (t tolerance) check(name string, got float64, res *repResult) {
	if math.Abs(got-t.Want) > t.Tol {
		res.failf("tolerance miss: %s = %.3f, want %.2f ± %.2f", name, got, t.Want, t.Tol)
	}
}

// golden is golden.json: the pinned outputs at goldenSeed plus the
// tolerances that hold on every seed.
type golden struct {
	Seed int64 `json:"seed"`
	// DatasetSHA256 pins each paper workload's dataset at Seed.
	// paper-distributed shares paper-direct's cache key, so its entry
	// must equal paper-direct's.
	DatasetSHA256 map[string]string `json:"dataset_sha256"`
	// SimEvents pins each paper workload's executed event count.
	SimEvents map[string]uint64 `json:"sim_events"`
	// MixSHA256 pins the small-service-mix datasets, keyed by campaign
	// seed (Seed+1 … Seed+32).
	MixSHA256 map[string]string `json:"small_mix_sha256"`
	// Paper holds the paper's four headline percentages with the
	// tolerance the simulated world reproduces them to.
	Paper map[string]tolerance `json:"paper"`
	// TransitCE is the band the congested-transit CE ratios sit in:
	// observed at the vantages, and ground truth at the queues.
	TransitCE struct {
		Observed tolerance `json:"observed_pct"`
		Queue    tolerance `json:"queue_pct"`
	} `json:"transit_ce"`
}

var (
	goldenOnce sync.Once
	goldenVal  *golden
)

// loadGolden decodes the embedded golden.json. It is part of the
// binary, so a malformed file is a build defect, not an input error.
func loadGolden() *golden {
	goldenOnce.Do(func() {
		var g golden
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			panic(fmt.Sprintf("bench: embedded golden.json: %v", err))
		}
		goldenVal = &g
	})
	return goldenVal
}

// checkGolden compares one repetition's hashes and event count with
// the pinned values. It applies only to full-size runs at goldenSeed.
func checkGolden(o repOptions, res *repResult) {
	if o.Quick || o.Seed != goldenSeed {
		return
	}
	g := loadGolden()
	if o.Workload == wlMix {
		for seed, got := range res.JobHashes {
			if want := g.MixSHA256[seed]; got != want {
				res.failf("hash mismatch: mix seed %s dataset %s, golden %s", seed, short(got), short(want))
			}
		}
		return
	}
	if want := g.DatasetSHA256[o.Workload]; res.Hash != want {
		res.failf("hash mismatch: dataset %s, golden %s", short(res.Hash), short(want))
	}
	if want := g.SimEvents[o.Workload]; uint64(res.Metrics[mEvents]) != want {
		res.failf("sim_events %d, golden %d", uint64(res.Metrics[mEvents]), want)
	}
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	if hash == "" {
		return "(none)"
	}
	return hash
}

// writeGolden pins the given repetitions' outputs, keeping the
// tolerances already in the file.
func writeGolden(results map[string]*repResult) error {
	g := *loadGolden()
	g.Seed = goldenSeed
	g.DatasetSHA256 = make(map[string]string)
	g.SimEvents = make(map[string]uint64)
	for name, res := range results {
		if name == wlMix {
			g.MixSHA256 = res.JobHashes
			continue
		}
		g.DatasetSHA256[name] = res.Hash
		g.SimEvents[name] = uint64(res.Metrics[mEvents])
	}
	raw, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(raw, '\n'), 0o644)
}
