// Package dataset defines the measurement study's data model and its
// persistence format: the schema of one server observation, one trace
// (all 2500 servers × four measurements from one vantage point), and the
// campaign dataset the analysis package consumes.
//
// The original study published its traces at
// doi:10.5525/gla.researchdata.207; this package is the analogue, using
// JSON-lines so datasets stream and diff cleanly.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
)

// Observation is the outcome of the four measurements against one server
// within one trace (Section 3 of the paper).
//
// Each field is as wide as the values it can take and no wider: a
// campaign holds one row per server per trace (≈ 195 k at paper scale),
// so the row is 14 bytes, and one added int would cost 195 k × 8 B
// (TestObservationWidth). The probes bound every value where it is
// produced, and the decoders refuse what does not fit. The declaration
// order is the JSON key order, which the hand-written codec shares.
type Observation struct {
	Server packet.Addr `json:"server"`

	// UDP (NTP) reachability with not-ECT and ECT(0) marked requests.
	UDPReachable    bool `json:"udp"`
	UDPECTReachable bool `json:"udp_ect"`
	// Attempts used (≤ 6: one initial + up to five retransmissions;
	// ntp.ProbeConfig bounds any budget to 255).
	UDPAttempts    uint8 `json:"udp_attempts,omitempty"`
	UDPECTAttempts uint8 `json:"udp_ect_attempts,omitempty"`

	// TCP (HTTP) reachability without ECN, and ECN negotiation outcome
	// when requested with an ECN-setup SYN.
	TCPReachable    bool   `json:"tcp"`
	TCPECNReachable bool   `json:"tcp_ecn"`        // reachable when ECN requested
	TCPECN          bool   `json:"tcp_ecn_nego"`   // ECN-setup SYN-ACK received
	HTTPStatus      uint16 `json:"http,omitempty"` // status code without ECN (three digits)
}

// Trace is one pass over the full server list from one vantage point.
type Trace struct {
	// Vantage is the location name (paper Table 2 vocabulary).
	Vantage string `json:"vantage"`
	// Batch is 1 (April/May) or 2 (July/August).
	Batch int `json:"batch"`
	// Index is the trace's sequence number within the campaign.
	Index int `json:"index"`
	// Started is the virtual start time.
	Started time.Duration `json:"started"`
	// Observations, one per server probed.
	Observations []Observation `json:"observations"`
}

// CountReachable tallies the four reachability dimensions of a trace.
func (t *Trace) CountReachable() (udp, udpECT, tcp, tcpECN int) {
	for _, o := range t.Observations {
		if o.UDPReachable {
			udp++
		}
		if o.UDPECTReachable {
			udpECT++
		}
		if o.TCPReachable {
			tcp++
		}
		if o.TCPECN {
			tcpECN++
		}
	}
	return
}

// Dataset is a campaign's full output.
type Dataset struct {
	Traces []Trace
}

// Vantages returns the distinct vantage names in first-seen order.
func (d *Dataset) Vantages() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range d.Traces {
		if !seen[t.Vantage] {
			seen[t.Vantage] = true
			out = append(out, t.Vantage)
		}
	}
	return out
}

// TracesFrom filters traces by vantage.
func (d *Dataset) TracesFrom(vantage string) []Trace {
	var out []Trace
	for _, t := range d.Traces {
		if t.Vantage == vantage {
			out = append(out, t)
		}
	}
	return out
}

// Servers returns the union of server addresses observed, in stable
// (address) order of first appearance within the first trace.
func (d *Dataset) Servers() []packet.Addr {
	if len(d.Traces) == 0 {
		return nil
	}
	seen := map[packet.Addr]bool{}
	var out []packet.Addr
	for _, t := range d.Traces {
		for _, o := range t.Observations {
			if !seen[o.Server] {
				seen[o.Server] = true
				out = append(out, o.Server)
			}
		}
	}
	return out
}

// Merge concatenates datasets in argument order and renumbers the trace
// Index field to a single ascending campaign-wide sequence. Callers that
// split a campaign into independently-executed shards pass the per-shard
// datasets in canonical (vantage, slice) order; because each part is
// internally ordered, slices are contiguous trace blocks, and the
// concatenation order is fixed, the merged output is byte-identical
// however the shards were scheduled — and however many slices each
// vantage was split into.
//
// Trace.Started is each trace's virtual start time. The sharded engine
// pins it to the trace's own epoch (a function of the trace's
// per-vantage index alone), so it merges monotonic per vantage and
// identical across slicings; order merged traces by Index, which is
// campaign-wide.
func Merge(parts ...*Dataset) *Dataset {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += len(p.Traces)
		}
	}
	merged := &Dataset{Traces: make([]Trace, 0, total)}
	for _, p := range parts {
		if p == nil {
			continue
		}
		merged.Traces = append(merged.Traces, p.Traces...)
	}
	for i := range merged.Traces {
		merged.Traces[i].Index = i
	}
	return merged
}

// Write streams the dataset as JSON lines, one trace per line, through
// one Encoder: it holds a chunk of encoded bytes at a time — never the
// dataset, nor a whole paper-scale trace — so w sees the lines in
// order, cut wherever a chunk filled.
func Write(w io.Writer, d *Dataset) error {
	e := NewEncoder(w)
	for i := range d.Traces {
		e.Trace(&d.Traces[i])
		e.Raw("\n")
	}
	if err := e.Flush(); err != nil {
		return fmt.Errorf("dataset: write: %w", err)
	}
	return nil
}

// Read parses a JSON-lines dataset.
func Read(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var t Trace
		if err := dec.Decode(&t); err != nil {
			if err == io.EOF {
				return d, nil
			}
			return nil, fmt.Errorf("dataset: decode trace %d: %w", len(d.Traces), err)
		}
		d.Traces = append(d.Traces, t)
	}
}
