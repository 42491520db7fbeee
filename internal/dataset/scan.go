package dataset

import (
	"bytes"
	"io"

	"repro/internal/packet"
)

// scanWindow is a Scanner's first window. It grows, by doubling, to the
// largest value it has had to hold whole — a paper-scale trace is
// ≈ 350 KB — and keeps that size across Reset.
const scanWindow = 64 << 10

// Scanner is a strict cursor over a stream of JSON in exactly the forms
// Encoder writes: the grammar of (*Trace).UnmarshalJSON's fast path,
// read through a window instead of a whole buffer. It exists for bytes
// that are checked and kept rather than decoded — a shard-result upload
// the coordinator holds as received and later splices into the merged
// dataset — so it yields traces as validated bytes, one at a time, and
// decodes only the small scalars around them.
//
// Every method consumes what it accepts. After a method reports false
// the cursor is unspecified: a caller abandons the stream (and, where
// the bytes may be any valid JSON, hands them to encoding/json). A
// slice a method returns aliases the window and is valid until the
// next call. The Scanner reads r until r reports an error or io.EOF and
// holds nothing of it but the window, which it reuses after Reset.
type Scanner struct {
	r      io.Reader
	buf    []byte // buf[lo:hi] has been read and not consumed
	lo, hi int
	off    int64 // stream offset of buf[lo]
	done   bool  // r has reported io.EOF or err
	err    error // a read error other than io.EOF
}

// Reset points s at r, keeping its window.
func (s *Scanner) Reset(r io.Reader) {
	*s = Scanner{r: r, buf: s.buf}
}

// Offset is how many bytes of the stream have been consumed.
func (s *Scanner) Offset() int64 { return s.off }

// Cap is the window's size: what s holds onto between streams.
func (s *Scanner) Cap() int { return cap(s.buf) }

// more reads at least one byte into the window — compacting it, or
// growing it once it is full of unconsumed bytes — and reports false
// once the stream has ended.
func (s *Scanner) more() bool {
	if s.lo == s.hi {
		s.lo, s.hi = 0, 0
	}
	for !s.done {
		if s.hi == len(s.buf) {
			if s.lo == 0 {
				grown := make([]byte, max(scanWindow, 2*len(s.buf)))
				copy(grown, s.buf[:s.hi])
				s.buf = grown
			} else {
				s.hi = copy(s.buf, s.buf[s.lo:s.hi])
				s.lo = 0
			}
		}
		n, err := s.r.Read(s.buf[s.hi:])
		s.hi += n
		if err != nil {
			s.done = true
			if err != io.EOF {
				s.err = err
			}
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// ensure reports whether n unconsumed bytes are in the window, reading
// until they are or the stream ends.
func (s *Scanner) ensure(n int) bool {
	for s.hi-s.lo < n {
		if !s.more() {
			return false
		}
	}
	return true
}

// find returns the position, relative to the cursor, of the first sep
// at or after from, reading as far as it takes; -1 if the stream ends
// first.
func (s *Scanner) find(sep string, from int) int {
	for {
		if i := bytes.Index(s.buf[s.lo+from:s.hi], []byte(sep)); i >= 0 {
			return from + i
		}
		from = max(from, s.hi-s.lo-len(sep)+1)
		if !s.more() {
			return -1
		}
	}
}

func (s *Scanner) advance(n int) {
	s.lo += n
	s.off += int64(n)
}

// Discard consumes n bytes.
func (s *Scanner) Discard(n int64) bool {
	for n > 0 {
		if s.lo == s.hi && !s.more() {
			return false
		}
		k := int(min(n, int64(s.hi-s.lo)))
		s.advance(k)
		n -= int64(k)
	}
	return true
}

// Lit consumes the literal lit.
func (s *Scanner) Lit(lit string) bool {
	if !s.ensure(len(lit)) || string(s.buf[s.lo:s.lo+len(lit)]) != lit {
		return false
	}
	s.advance(len(lit))
	return true
}

// Int consumes a decimal integer as strconv.AppendInt prints one.
func (s *Scanner) Int() (int64, bool) {
	s.ensure(len("-9223372036854775808") + 1) // or the stream's end: whatever follows the digits decides
	p := strictParser{b: s.buf[s.lo:s.hi]}
	n, ok := p.int()
	if ok {
		s.advance(p.i)
	}
	return n, ok
}

// Str consumes a JSON string of plain bytes — one encoding/json writes
// as it is, and reads back by copying — and returns what is between the
// quotes.
func (s *Scanner) Str() ([]byte, bool) {
	if !s.ensure(1) || s.buf[s.lo] != '"' {
		return nil, false
	}
	end := s.find(`"`, 1)
	if end < 0 {
		return nil, false
	}
	str := s.buf[s.lo+1 : s.lo+end]
	for _, c := range str {
		if !plainStringByte(c) {
			return nil, false
		}
	}
	s.advance(end + 1)
	return str, true
}

// Addrs consumes null or an array of addresses as Encoder.Addr writes
// them, into a slice of exactly their number.
func (s *Scanner) Addrs() ([]packet.Addr, bool) {
	if s.Lit("null") {
		return nil, true
	}
	if !s.ensure(1) || s.buf[s.lo] != '[' {
		return nil, false
	}
	end := s.find("]", 1) // a dotted quad holds no bracket
	if end < 0 {
		return nil, false
	}
	p := strictParser{b: s.buf[s.lo : s.lo+end+1], i: 1}
	addrs := []packet.Addr{}
	if !p.lit("]") {
		addrs = make([]packet.Addr, bytes.Count(p.b, []byte(","))+1)
		for k := range addrs {
			if k > 0 && !p.lit(",") {
				return nil, false
			}
			if !p.lit(`"`) || !p.addr(&addrs[k]) || !p.lit(`"`) {
				return nil, false
			}
		}
		if !p.lit("]") {
			return nil, false
		}
	}
	s.advance(end + 1)
	return addrs, true
}

// Trace consumes one trace in exactly the form Encoder.Trace writes —
// the form (*Trace).UnmarshalJSON's fast path decodes — and returns its
// bytes, validated by the same grammar in its count-only form (nothing
// is decoded, nothing allocated beyond the window). Such a trace ends
// at the first "]}" after its observations key, or at "null}": no
// quote, hence no key, occurs inside its vantage name, and no bracket
// inside an observation.
func (s *Scanner) Trace() ([]byte, bool) { return s.trace(true) }

// AcceptedTrace consumes the next trace of a stream whose traces Trace
// has accepted before — a held upload, re-read for its bytes — framed
// by the same rule and not checked again.
func (s *Scanner) AcceptedTrace() ([]byte, bool) { return s.trace(false) }

func (s *Scanner) trace(check bool) ([]byte, bool) {
	const key = `"observations":`
	at := s.find(key, 0)
	if at < 0 {
		return nil, false
	}
	at += len(key)
	var end int
	switch {
	case s.ensure(at+len("null}")) && string(s.buf[s.lo+at:s.lo+at+len("null}")]) == "null}":
		end = at + len("null}")
	case s.ensure(at+1) && s.buf[s.lo+at] == '[':
		if end = s.find("]}", at); end < 0 {
			return nil, false
		}
		end += len("]}")
	default:
		return nil, false
	}
	trace := s.buf[s.lo : s.lo+end]
	if check && !scanTrace(trace) {
		return nil, false
	}
	s.advance(end)
	return trace, true
}

// Rest consumes the stream to its end and returns what was left of it;
// false if the stream ended in a read error rather than io.EOF.
func (s *Scanner) Rest() ([]byte, bool) {
	for s.more() {
	}
	rest := s.buf[s.lo:s.hi]
	s.advance(len(rest))
	return rest, s.err == nil
}
