package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"time"

	"repro/internal/packet"
)

// traceJSON is Trace as the reflective decoder sees it: the same
// fields and tags without the UnmarshalJSON method, so decoding into it
// is plain encoding/json.
type traceJSON Trace

// UnmarshalJSON is the tree's one trace decoder. Wherever a trace is
// read — a dataset line, a shard-result upload, a journaled upload on
// replay — encoding/json hands its bytes here. Bytes in exactly the
// form Encoder.Trace writes (all of them, outside tests and foreign
// clients) are parsed in place into one exactly-sized observation
// slice; anything else goes, untouched, to the reflective decoder, so
// for every input the value and the error are encoding/json's
// (FuzzTraceUnmarshal). Nothing decoded aliases data.
func (t *Trace) UnmarshalJSON(data []byte) error {
	// The reflective decoder merges into a slice it is given; only a
	// nil one makes "decode" and "replace" the same thing.
	if t.Observations == nil && t.parseCanonical(data) {
		return nil
	}
	return json.Unmarshal(data, (*traceJSON)(t))
}

// obsOpen starts every canonical observation and can appear nowhere
// else in a canonical trace: the vantage string holds no quote.
const obsOpen = `{"server":"`

// parseCanonical decodes data into t if data is byte for byte what
// Encoder.Trace writes for some trace with a plain vantage name (no
// whitespace, keys in schema order, zero omitempty fields absent,
// integers as strconv prints them and within their fields' ranges —
// udp_attempts and udp_ect_attempts 1..255, http 1..65535), and
// otherwise reports false with t untouched. Accepting only that form is
// what makes the fast path safe to reason about: an accepted input
// re-encodes to itself, so it has exactly one reading.
func (t *Trace) parseCanonical(data []byte) bool { return canonicalTrace(data, t) }

// scanTrace reports whether parseCanonical would accept data, decoding
// nothing and allocating nothing: the count-only form of the same
// grammar, for bytes that are kept as they are (Scanner.Trace).
func scanTrace(data []byte) bool { return canonicalTrace(data, nil) }

// canonicalTrace is the strict grammar behind parseCanonical and
// scanTrace: it matches data against what Encoder.Trace writes and, if
// t is non-nil, decodes it into t. With t nil every observation is
// parsed into one scratch value and dropped.
func canonicalTrace(data []byte, t *Trace) bool {
	p := strictParser{b: data}
	if !p.lit(`{"vantage":"`) {
		return false
	}
	start := p.i
	for p.i < len(p.b) && plainStringByte(p.b[p.i]) {
		p.i++
	}
	vantage := p.b[start:p.i]
	if !p.lit(`","batch":`) {
		return false
	}
	batch, ok := p.int()
	if !ok || int64(int(batch)) != batch || !p.lit(`,"index":`) {
		return false
	}
	index, ok := p.int()
	if !ok || int64(int(index)) != index || !p.lit(`,"started":`) {
		return false
	}
	started, ok := p.int()
	if !ok || !p.lit(`,"observations":`) {
		return false
	}

	var obs []Observation
	switch {
	case p.lit("null"):
	case p.lit("[]"):
		obs = []Observation{}
	case p.lit("["):
		// Counted first, allocated once. The count is a claim until
		// the loop below has parsed that many observations and found
		// the bracket; it reserves 14 bytes per 11 of input at worst.
		n := bytes.Count(p.b[p.i:], []byte(obsOpen))
		var scratch Observation
		if t != nil {
			obs = make([]Observation, n)
		}
		for k := 0; k < n; k++ {
			if k > 0 && !p.lit(",") {
				return false
			}
			o := &scratch
			if t != nil {
				o = &obs[k]
			}
			if !p.observation(o) {
				return false
			}
		}
		if n == 0 || !p.lit("]") {
			return false
		}
	default:
		return false
	}
	if !p.lit("}") || p.i != len(p.b) {
		return false
	}
	if t == nil {
		return true
	}

	t.Vantage = string(vantage)
	t.Batch = int(batch)
	t.Index = int(index)
	t.Started = time.Duration(started)
	t.Observations = obs
	return true
}

// strictParser is a cursor over bytes that must match the encoder's
// output exactly. Each method consumes what it accepts and leaves the
// cursor alone otherwise.
type strictParser struct {
	b []byte
	i int
}

// lit consumes the literal s.
func (p *strictParser) lit(s string) bool {
	if end := p.i + len(s); end <= len(p.b) && string(p.b[p.i:end]) == s {
		p.i = end
		return true
	}
	return false
}

// int consumes a decimal integer as strconv.AppendInt prints one: an
// optional minus, no leading zero, no "-0", within int64. What follows
// the digits is the caller's next literal to check, so a fraction or an
// exponent fails there.
func (p *strictParser) int() (int64, bool) {
	i := p.i
	neg := i < len(p.b) && p.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64 // 19 digits cannot overflow it
	for i < len(p.b) && i-start < 19 && p.b[i]-'0' <= 9 {
		u = u*10 + uint64(p.b[i]-'0')
		i++
	}
	switch digits := i - start; {
	case digits == 0,
		p.b[start] == '0' && (digits > 1 || neg),
		i < len(p.b) && p.b[i]-'0' <= 9: // a 20th digit
		return 0, false
	}
	if neg {
		if u > -math.MinInt64 {
			return 0, false
		}
		p.i = i
		return -int64(u), true // exact for 1<<63 too: it wraps to MinInt64
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	p.i = i
	return int64(u), true
}

// nonzeroUint consumes the value of an omitempty unsigned field into
// dst: 1 up to the largest value a T holds. The encoder omits a zero,
// so a written zero is not canonical; a value the field cannot hold is
// refused, as encoding/json refuses it, never truncated.
func nonzeroUint[T uint8 | uint16](p *strictParser, dst *T) bool {
	n, ok := p.int()
	if !ok || n < 1 || uint64(n) > uint64(^T(0)) {
		return false
	}
	*dst = T(n)
	return true
}

// boolean consumes true or false.
func (p *strictParser) boolean(dst *bool) bool {
	switch {
	case p.lit("true"):
		*dst = true
	case p.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// addr consumes a dotted quad as Addr.MarshalText renders it: four
// octets of at most three digits, none with a leading zero — which is
// also all netip.ParseAddr takes for IPv4.
func (p *strictParser) addr(dst *packet.Addr) bool {
	i := p.i
	for k := range dst {
		if k > 0 {
			if i >= len(p.b) || p.b[i] != '.' {
				return false
			}
			i++
		}
		start, octet := i, 0
		for i < len(p.b) && i-start < 3 && p.b[i]-'0' <= 9 {
			octet = octet*10 + int(p.b[i]-'0')
			i++
		}
		if i == start || octet > 255 || (p.b[start] == '0' && i-start > 1) {
			return false
		}
		dst[k] = byte(octet)
	}
	p.i = i
	return true
}

// observation consumes one observation object into o.
func (p *strictParser) observation(o *Observation) bool {
	if !p.lit(obsOpen) || !p.addr(&o.Server) ||
		!p.lit(`","udp":`) || !p.boolean(&o.UDPReachable) ||
		!p.lit(`,"udp_ect":`) || !p.boolean(&o.UDPECTReachable) {
		return false
	}
	if p.lit(`,"udp_attempts":`) && !nonzeroUint(p, &o.UDPAttempts) {
		return false
	}
	if p.lit(`,"udp_ect_attempts":`) && !nonzeroUint(p, &o.UDPECTAttempts) {
		return false
	}
	if !p.lit(`,"tcp":`) || !p.boolean(&o.TCPReachable) ||
		!p.lit(`,"tcp_ecn":`) || !p.boolean(&o.TCPECNReachable) ||
		!p.lit(`,"tcp_ecn_nego":`) || !p.boolean(&o.TCPECN) {
		return false
	}
	if p.lit(`,"http":`) && !nonzeroUint(p, &o.HTTPStatus) {
		return false
	}
	return p.lit("}")
}
