package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asn"
	"repro/internal/ecn"
	"repro/internal/packet"
	"repro/internal/traceroute"
)

// Figure4 is the traceroute path-transparency analysis of Section 4.2.
type Figure4 struct {
	// Hop observations (the paper's "155439 IP level hops").
	TotalObservations     int
	RespondedObservations int
	PreservedObservations int
	ModifiedObservations  int
	// CEObservations counts quoted CE marks; the paper saw none.
	CEObservations int

	// Strip locations: the first hop on a path where the quoted field
	// differs from what was sent. AlwaysStrip routers stripped on every
	// path observation through them; SometimesStrip flapped (paper: 125).
	StripLocationRouters int
	AlwaysStripRouters   int
	SometimesStrip       int

	// AS attribution of strip locations (paper: 59.1% at boundaries, of
	// those determinable).
	BoundaryStrips     int
	DeterminableStrips int
	BoundaryFraction   float64

	// ASes observed across all responding hops (paper: 1400).
	ASesSeen int

	// SamplePaths renders a handful of paths for the figure.
	SamplePaths []string
}

// ComputeFigure4 reduces traceroute campaign output, given in segments
// as campaign.Result.PathObs holds it (a caller with one slice wraps
// it). The asn table attributes strip locations to AS boundaries by
// comparing the stripping router's AS with the previous hop's.
func ComputeFigure4(segs [][]traceroute.PathObservation, table *asn.Table) Figure4 {
	var f Figure4

	type pathKey struct {
		vantage string
		target  packet.Addr
	}
	// Rebuild per-path hop sequences.
	paths := map[pathKey][]traceroute.PathObservation{}
	for _, obs := range segs {
		for _, o := range obs {
			k := pathKey{o.Vantage, o.Target}
			paths[k] = append(paths[k], o)
		}
	}
	keys := make([]pathKey, 0, len(paths))
	for k := range paths {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].vantage != keys[j].vantage {
			return keys[i].vantage < keys[j].vantage
		}
		return keys[i].target.Less(keys[j].target)
	})

	asSeen := map[asn.ASN]bool{}
	// Per-router strip bookkeeping across paths.
	stripCount := map[packet.Addr]int{}   // times router was a strip location
	throughCount := map[packet.Addr]int{} // times router responded with ECT sent upstream intact
	stripPrevHop := map[packet.Addr]packet.Addr{}

	for _, k := range keys {
		hops := paths[k]
		sort.Slice(hops, func(i, j int) bool {
			if hops[i].TTL != hops[j].TTL {
				return hops[i].TTL < hops[j].TTL
			}
			return hops[i].Attempt < hops[j].Attempt
		})
		var prevResponding packet.Addr
		upstreamIntact := true
		stripSeen := false
		for _, h := range hops {
			f.TotalObservations++
			if !h.Responded {
				continue
			}
			f.RespondedObservations++
			if info, ok := table.Lookup(h.Hop); ok {
				asSeen[info.ASN] = true
			}
			switch h.Transition {
			case ecn.Preserved:
				f.PreservedObservations++
				if upstreamIntact {
					throughCount[h.Hop]++
				}
			case ecn.Marked:
				f.CEObservations++
				f.ModifiedObservations++
			default:
				f.ModifiedObservations++
				if upstreamIntact && !stripSeen {
					// First modified hop on this path: a strip location.
					stripCount[h.Hop]++
					throughCount[h.Hop]++
					if _, ok := stripPrevHop[h.Hop]; !ok && !prevResponding.IsZero() {
						stripPrevHop[h.Hop] = prevResponding
					}
					stripSeen = true
					upstreamIntact = false
				}
			}
			prevResponding = h.Hop
		}
	}
	f.ASesSeen = len(asSeen)

	for router, strips := range stripCount {
		f.StripLocationRouters++
		if strips == throughCount[router] {
			f.AlwaysStripRouters++
		} else {
			f.SometimesStrip++
		}
		prev, havePrev := stripPrevHop[router]
		if !havePrev {
			continue
		}
		boundary, determinable := table.Boundary(prev, router)
		if determinable {
			f.DeterminableStrips++
			if boundary {
				f.BoundaryStrips++
			}
		}
	}
	if f.DeterminableStrips > 0 {
		f.BoundaryFraction = float64(f.BoundaryStrips) / float64(f.DeterminableStrips)
	}

	// Render sample paths: prefer a few containing strips, then clean
	// ones, to echo the paper's mostly-green-with-red-runs figure.
	var withStrip, clean []pathKey
	for _, k := range keys {
		has := false
		for _, h := range paths[k] {
			if h.Responded && h.Transition != ecn.Preserved {
				has = true
				break
			}
		}
		if has {
			withStrip = append(withStrip, k)
		} else {
			clean = append(clean, k)
		}
	}
	sample := append([]pathKey{}, withStrip...)
	if len(sample) > 3 {
		sample = sample[:3]
	}
	for _, k := range clean {
		if len(sample) >= 6 {
			break
		}
		sample = append(sample, k)
	}
	for _, k := range sample {
		f.SamplePaths = append(f.SamplePaths, renderPath(k.vantage, k.target, paths[k]))
	}
	return f
}

// renderPath draws one path as G/R/. glyphs (preserved / modified /
// silent), hop by hop.
func renderPath(vantage string, target packet.Addr, hops []traceroute.PathObservation) string {
	byTTL := map[uint8]traceroute.PathObservation{}
	var maxTTL uint8
	for _, h := range hops {
		if h.Responded {
			if cur, ok := byTTL[h.TTL]; !ok || h.Attempt < cur.Attempt {
				byTTL[h.TTL] = h
			}
			maxTTL = max(maxTTL, h.TTL)
		}
	}
	var glyphs []byte
	for ttl := 1; ttl <= int(maxTTL); ttl++ { // an int: a uint8 would wrap past 255 and never stop
		h, ok := byTTL[uint8(ttl)]
		switch {
		case !ok:
			glyphs = append(glyphs, '.')
		case h.Transition == ecn.Preserved:
			glyphs = append(glyphs, 'G')
		default:
			glyphs = append(glyphs, 'R')
		}
	}
	return fmt.Sprintf("%-22s -> %-14s %s", vantage, target, glyphs)
}

// RenderFigure4 prints the summary and sample paths.
func RenderFigure4(f Figure4) string {
	var b strings.Builder
	b.WriteString("Figure 4: traceroute ECN transparency (G=mark intact, R=mark modified, .=silent)\n")
	for _, p := range f.SamplePaths {
		b.WriteString("  " + p + "\n")
	}
	pct := 0.0
	if f.RespondedObservations > 0 {
		pct = 100 * float64(f.PreservedObservations) / float64(f.RespondedObservations)
	}
	b.WriteString(fmt.Sprintf("hop observations: %d (responded %d); ECT(0) preserved at %d (%.2f%%), modified at %d\n",
		f.TotalObservations, f.RespondedObservations, f.PreservedObservations, pct, f.ModifiedObservations))
	b.WriteString(fmt.Sprintf("strip locations: %d routers (%d always, %d sometimes); %.1f%% of determinable strips at AS boundaries (%d/%d)\n",
		f.StripLocationRouters, f.AlwaysStripRouters, f.SometimesStrip,
		100*f.BoundaryFraction, f.BoundaryStrips, f.DeterminableStrips))
	b.WriteString(fmt.Sprintf("ASes observed: %d; ECN-CE marks seen: %d\n", f.ASesSeen, f.CEObservations))
	return b.String()
}
