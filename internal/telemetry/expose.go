package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Exposition renders a Snapshot — never the live instruments — so one
// scrape is a consistent point-in-time view and rendering cost never
// lands on instrument writers.

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text format:
// one # HELP / # TYPE header per family, histograms as cumulative
// _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Snapshot()
	var prev string
	for i := range samples {
		s := &samples[i]
		if s.Name != prev {
			prev = s.Name
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		if err := writePromSample(w, s); err != nil {
			return err
		}
	}
	return nil
}

func writePromSample(w io.Writer, s *Sample) error {
	switch s.Kind {
	case KindHistogram:
		for _, b := range s.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				s.Name, bucketLabels(s.Labels, b.UpperBound), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, labelString(s.Labels), formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, labelString(s.Labels), s.Count)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labelString(s.Labels), formatFloat(s.Value))
		return err
	}
}

// bucketLabels renders a histogram bucket's label set: the family
// labels plus le.
func bucketLabels(labels []Label, ub float64) string {
	le := "+Inf"
	if !math.IsInf(ub, 1) {
		le = formatFloat(ub)
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for _, l := range labels {
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteString(`",`)
	}
	sb.WriteString(`le="`)
	sb.WriteString(le)
	sb.WriteString(`"}`)
	return sb.String()
}

// formatFloat renders a value the way Prometheus clients expect:
// shortest round-trip representation, integers without exponents.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
