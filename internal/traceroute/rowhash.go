package traceroute

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// HashRows is the canonical digest of a sweep's output: SHA-256 over one
//
//	vantage|target|ttl|attempt|responded|hop|sent|quoted|transition|rtt_ns|reached
//
// line per row, in row order (codepoints and the transition as their
// numeric values, booleans as true/false). The rows may come in
// segments — a campaign's PathObs is one per sweep shard — and hash as
// their concatenation. Two sweeps hash equal exactly when they produced
// the same rows in the same order; the determinism tests and
// cmd/determinism compare it across every execution shape, and
// TestSweepRowHash pins its value for the small test campaign.
func HashRows(segs ...[]PathObservation) string {
	h := sha256.New()
	line := make([]byte, 0, 128)
	for _, rows := range segs {
		for i := range rows {
			r := &rows[i]
			line = append(line[:0], r.Vantage...)
			line = append(line, '|')
			line = append(line, r.Target.String()...)
			line = append(line, '|')
			line = strconv.AppendInt(line, int64(r.TTL), 10)
			line = append(line, '|')
			line = strconv.AppendInt(line, int64(r.Attempt), 10)
			line = append(line, '|')
			line = strconv.AppendBool(line, r.Responded)
			line = append(line, '|')
			line = append(line, r.Hop.String()...)
			line = append(line, '|')
			line = strconv.AppendUint(line, uint64(r.SentECN), 10)
			line = append(line, '|')
			line = strconv.AppendUint(line, uint64(r.QuotedECN), 10)
			line = append(line, '|')
			line = strconv.AppendUint(line, uint64(r.Transition), 10)
			line = append(line, '|')
			line = strconv.AppendInt(line, int64(r.RTT), 10)
			line = append(line, '|')
			line = strconv.AppendBool(line, r.ReachedDest)
			line = append(line, '\n')
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
