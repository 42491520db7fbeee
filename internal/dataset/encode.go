package dataset

import (
	"encoding/json"
	"strconv"
)

// appendTrace appends t's dataset line — exactly the bytes
// json.NewEncoder(w).Encode(t) would write, newline included — to b.
// The schema is fixed and flat, so the line is assembled by hand:
// reflective encoding/json spends an allocation per observation on
// Addr.MarshalText alone, and Write emits millions of observations per
// campaign. TestAppendTraceMatchesJSON and FuzzAppendTrace hold the two
// encoders byte-identical.
func appendTrace(b []byte, t *Trace) []byte {
	b = append(b, `{"vantage":`...)
	b = appendString(b, t.Vantage)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(t.Batch), 10)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(t.Index), 10)
	b = append(b, `,"started":`...)
	b = strconv.AppendInt(b, int64(t.Started), 10)
	b = append(b, `,"observations":`...)
	if t.Observations == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range t.Observations {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendObservation(b, &t.Observations[i])
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

func appendObservation(b []byte, o *Observation) []byte {
	b = append(b, `{"server":"`...)
	for i, octet := range o.Server {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	b = append(b, `","udp":`...)
	b = strconv.AppendBool(b, o.UDPReachable)
	b = append(b, `,"udp_ect":`...)
	b = strconv.AppendBool(b, o.UDPECTReachable)
	if o.UDPAttempts != 0 {
		b = append(b, `,"udp_attempts":`...)
		b = strconv.AppendInt(b, int64(o.UDPAttempts), 10)
	}
	if o.UDPECTAttempts != 0 {
		b = append(b, `,"udp_ect_attempts":`...)
		b = strconv.AppendInt(b, int64(o.UDPECTAttempts), 10)
	}
	b = append(b, `,"tcp":`...)
	b = strconv.AppendBool(b, o.TCPReachable)
	b = append(b, `,"tcp_ecn":`...)
	b = strconv.AppendBool(b, o.TCPECNReachable)
	b = append(b, `,"tcp_ecn_nego":`...)
	b = strconv.AppendBool(b, o.TCPECN)
	if o.HTTPStatus != 0 {
		b = append(b, `,"http":`...)
		b = strconv.AppendInt(b, int64(o.HTTPStatus), 10)
	}
	return append(b, '}')
}

// appendString appends s as a JSON string. Plain printable ASCII — every
// vantage name the topology generates — is copied between quotes; any
// string holding a byte encoding/json would escape, replace or even look
// at twice (quotes, backslashes, the HTML-sensitive <, > and &, control
// characters, anything non-ASCII) goes through json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
