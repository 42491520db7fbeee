// Package ntp implements the subset of the Network Time Protocol (RFC
// 5905) that the measurement study exercises: the 48-byte client/server
// packet format, a stratum-2 server responder, and the probing client
// with the paper's retransmission schedule (one-second timeout, up to
// five retransmissions).
//
// The codec is pure and the server's response logic is a function from
// request to response, which the simulated pool hosts bind to UDP port
// 123.
package ntp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// PacketLen is the length of an NTP packet without extensions.
const PacketLen = 48

// Mode is the NTP association mode.
type Mode uint8

// Modes used by the client/server exchange.
const (
	ModeClient Mode = 3
	ModeServer Mode = 4
)

// Errors returned by the codec and client.
var (
	ErrTruncated = errors.New("ntp: packet too short")
	ErrBadMode   = errors.New("ntp: unexpected mode")
)

// Packet is a decoded NTP header.
type Packet struct {
	LI        uint8 // leap indicator (2 bits)
	Version   uint8 // protocol version (3 bits); we speak version 4
	Mode      Mode  // association mode (3 bits)
	Stratum   uint8
	Poll      int8
	Precision int8
	RootDelay uint32 // NTP short format
	RootDisp  uint32 // NTP short format
	RefID     uint32
	RefTime   uint64 // NTP timestamp format (seconds<<32 | fraction)
	OriginTS  uint64
	RecvTS    uint64
	XmitTS    uint64
}

// Marshal appends the 48-byte wire form to b.
func (p *Packet) Marshal(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, PacketLen)...)
	w := b[off:]
	w[0] = p.LI<<6 | (p.Version&0x7)<<3 | uint8(p.Mode)&0x7
	w[1] = p.Stratum
	w[2] = uint8(p.Poll)
	w[3] = uint8(p.Precision)
	binary.BigEndian.PutUint32(w[4:], p.RootDelay)
	binary.BigEndian.PutUint32(w[8:], p.RootDisp)
	binary.BigEndian.PutUint32(w[12:], p.RefID)
	binary.BigEndian.PutUint64(w[16:], p.RefTime)
	binary.BigEndian.PutUint64(w[24:], p.OriginTS)
	binary.BigEndian.PutUint64(w[32:], p.RecvTS)
	binary.BigEndian.PutUint64(w[40:], p.XmitTS)
	return b
}

// Parse decodes an NTP packet. Trailing bytes (extensions, MACs) are
// ignored, as RFC 5905 permits for basic processing.
func Parse(data []byte) (Packet, error) {
	var p Packet
	if len(data) < PacketLen {
		return p, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	p.LI = data[0] >> 6
	p.Version = (data[0] >> 3) & 0x7
	p.Mode = Mode(data[0] & 0x7)
	p.Stratum = data[1]
	p.Poll = int8(data[2])
	p.Precision = int8(data[3])
	p.RootDelay = binary.BigEndian.Uint32(data[4:])
	p.RootDisp = binary.BigEndian.Uint32(data[8:])
	p.RefID = binary.BigEndian.Uint32(data[12:])
	p.RefTime = binary.BigEndian.Uint64(data[16:])
	p.OriginTS = binary.BigEndian.Uint64(data[24:])
	p.RecvTS = binary.BigEndian.Uint64(data[32:])
	p.XmitTS = binary.BigEndian.Uint64(data[40:])
	return p, nil
}

// ntpEpochOffset is the offset between the NTP era-0 epoch (1900-01-01)
// and the Unix epoch, in seconds.
const ntpEpochOffset = 2208988800

// TimestampFromTime converts wall-clock time to NTP timestamp format.
func TimestampFromTime(t time.Time) uint64 {
	secs := uint64(t.Unix()) + ntpEpochOffset
	frac := uint64(t.Nanosecond()) << 32 / 1_000_000_000
	return secs<<32 | frac
}

// TimeFromTimestamp converts an NTP timestamp to wall-clock time (era 0).
func TimeFromTimestamp(ts uint64) time.Time {
	secs := int64(ts>>32) - ntpEpochOffset
	nanos := (ts & 0xFFFFFFFF) * 1_000_000_000 >> 32
	return time.Unix(secs, int64(nanos))
}

// simEpoch anchors simulated virtual time to a fixed wall-clock instant
// so that simulated NTP timestamps are plausible 2015-era values. The
// study's first trace batch began in April 2015.
var simEpoch = time.Date(2015, time.April, 13, 9, 0, 0, 0, time.UTC)

// TimestampFromSim converts virtual time to an NTP timestamp.
func TimestampFromSim(d time.Duration) uint64 {
	return TimestampFromTime(simEpoch.Add(d))
}

// NewRequest builds a client request carrying xmit as its transmit
// timestamp (which doubles as the anti-spoofing nonce the client checks
// in the response's origin field).
func NewRequest(xmit uint64) Packet {
	return Packet{
		Version:   4,
		Mode:      ModeClient,
		Poll:      6,
		Precision: -20,
		XmitTS:    xmit,
	}
}

// Respond computes the server reply to a client request per RFC 5905:
// the client's transmit timestamp is echoed as origin, and the server
// stamps receive and transmit times. It returns ErrBadMode for non-client
// requests, which real pool servers ignore.
func Respond(req Packet, stratum uint8, refID uint32, recv, xmit uint64) (Packet, error) {
	if req.Mode != ModeClient {
		return Packet{}, fmt.Errorf("%w: %d", ErrBadMode, req.Mode)
	}
	return Packet{
		Version:   req.Version,
		Mode:      ModeServer,
		Stratum:   stratum,
		Poll:      req.Poll,
		Precision: -23,
		RootDelay: 0x0001_0000 >> 12, // ~16ms in NTP short format
		RootDisp:  0x0000_0400,
		RefID:     refID,
		RefTime:   recv &^ 0xFFFF, // coarse alignment, as servers report
		OriginTS:  req.XmitTS,
		RecvTS:    recv,
		XmitTS:    xmit,
	}, nil
}

// ValidateResponse checks that a reply corresponds to the request the
// client sent: server mode and echoed origin timestamp.
func ValidateResponse(req, resp Packet) error {
	if resp.Mode != ModeServer {
		return fmt.Errorf("%w: got %d, want server", ErrBadMode, resp.Mode)
	}
	if resp.OriginTS != req.XmitTS {
		return fmt.Errorf("ntp: origin timestamp mismatch (got %#x, want %#x)",
			resp.OriginTS, req.XmitTS)
	}
	return nil
}
