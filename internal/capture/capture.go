// Package capture provides the simulated counterpart of the study's
// parallel tcpdump sessions: packet taps that record the wire bytes a
// host sends and receives, plus a classic pcap (v2.4) writer/reader so
// captures can be persisted and inspected with standard tooling.
package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/netsim"
)

// Record is one captured packet.
type Record struct {
	At   time.Duration // virtual capture time
	Dir  netsim.TapDirection
	Wire []byte
}

// Recorder accumulates packets from a host tap. A MaxRecords bound turns
// it into a ring buffer so long campaigns don't hold every packet.
type Recorder struct {
	// MaxRecords bounds memory; 0 means unbounded.
	MaxRecords int

	records []Record
	dropped uint64
	start   int // ring start when bounded
}

// NewRecorder returns a recorder; attach it with host.AddTap(r.Tap).
func NewRecorder(maxRecords int) *Recorder {
	return &Recorder{MaxRecords: maxRecords}
}

// Tap is the netsim.Tap to install on a host.
func (r *Recorder) Tap(dir netsim.TapDirection, at time.Duration, wire []byte) {
	rec := Record{At: at, Dir: dir, Wire: append([]byte(nil), wire...)}
	if r.MaxRecords > 0 && len(r.records) == r.MaxRecords {
		r.records[r.start] = rec
		r.start = (r.start + 1) % r.MaxRecords
		r.dropped++
		return
	}
	r.records = append(r.records, rec)
}

// Records returns captured packets in order.
func (r *Recorder) Records() []Record {
	if r.start == 0 {
		return r.records
	}
	out := make([]Record, 0, len(r.records))
	out = append(out, r.records[r.start:]...)
	out = append(out, r.records[:r.start]...)
	return out
}

// Len reports the number of retained records.
func (r *Recorder) Len() int { return len(r.records) }

// Overwritten reports how many records the ring displaced.
func (r *Recorder) Overwritten() uint64 { return r.dropped }

// --- pcap ---------------------------------------------------------------

const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	// LinkTypeRaw is DLT_RAW: packets begin with the IPv4 header, which
	// is exactly what the simulator forwards.
	LinkTypeRaw = 101
	snapLen     = 65535
)

// ErrBadPcap indicates a malformed capture file.
var ErrBadPcap = errors.New("capture: malformed pcap")

// WritePcap serialises records to w in classic pcap format with raw-IP
// link type. Virtual timestamps map to seconds/microseconds since the
// pcap epoch.
func WritePcap(w io.Writer, records []Record) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVersionMinor)
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, r := range records {
		usec := r.At.Microseconds()
		binary.LittleEndian.PutUint32(rec[0:], uint32(usec/1_000_000))
		binary.LittleEndian.PutUint32(rec[4:], uint32(usec%1_000_000))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(r.Wire)))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(r.Wire)))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(r.Wire); err != nil {
			return err
		}
	}
	return nil
}

// ReadPcap parses a classic pcap file produced by WritePcap (or any
// little-endian raw-IP pcap). Direction information is not preserved by
// the format; records come back with Dir zero.
func ReadPcap(r io.Reader) ([]Record, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: global header: %v", ErrBadPcap, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPcap)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != LinkTypeRaw {
		return nil, fmt.Errorf("%w: link type %d (want raw IP)", ErrBadPcap, lt)
	}
	var out []Record
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("%w: record header: %v", ErrBadPcap, err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		incl := binary.LittleEndian.Uint32(rec[8:])
		if incl > snapLen {
			return nil, fmt.Errorf("%w: record length %d", ErrBadPcap, incl)
		}
		wire := make([]byte, incl)
		if _, err := io.ReadFull(r, wire); err != nil {
			return nil, fmt.Errorf("%w: record body: %v", ErrBadPcap, err)
		}
		out = append(out, Record{
			At:   time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Wire: wire,
		})
	}
}
