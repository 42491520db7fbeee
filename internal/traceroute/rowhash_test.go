package traceroute

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
	"repro/internal/vantage"
)

// TestHashRowsSegmented: HashRows over segments is HashRows over their
// concatenation, wherever the rows are split — empty segments, a split
// at either end and repeated split points included — so a campaign's
// per-shard PathObs hashes to the digest a flat slice of the same rows
// did.
func TestHashRowsSegmented(t *testing.T) {
	split := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]PathObservation, rng.Intn(40))
		for i := range rows {
			rows[i] = PathObservation{
				Vantage:     uint8(rng.Intn(vantage.Count)),
				Target:      packet.AddrFrom4(16, byte(rng.Intn(4)), 2, byte(rng.Intn(256))),
				TTL:         uint8(1 + rng.Intn(30)),
				Attempt:     uint8(rng.Intn(3)),
				Responded:   rng.Intn(2) == 0,
				Hop:         packet.AddrFrom4(16, 1, byte(rng.Intn(256)), byte(rng.Intn(256))),
				SentECN:     ecn.ECT0,
				QuotedECN:   ecn.Codepoint(rng.Intn(4)),
				Transition:  ecn.Transition(rng.Intn(4)),
				ReachedDest: rng.Intn(8) == 0,
				RTT:         time.Duration(rng.Int63n(int64(time.Second))),
			}
		}
		cuts := make([]int, rng.Intn(6))
		for i := range cuts {
			cuts[i] = rng.Intn(len(rows) + 1)
		}
		slices.Sort(cuts)
		var segs [][]PathObservation
		prev := 0
		for _, c := range append(cuts, len(rows)) {
			segs = append(segs, rows[prev:c])
			prev = c
		}
		if got, want := HashRows(segs...), HashRows(rows); got != want {
			t.Errorf("seed %d: %d rows cut at %v hash to %s, their concatenation to %s", seed, len(rows), cuts, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(split, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if empty := HashRows(); HashRows(nil, []PathObservation{}) != empty || HashRows(nil) != empty {
		t.Error("no rows must hash alike however they are passed")
	}
}
