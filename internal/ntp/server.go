package ntp

import (
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Port is the well-known NTP UDP port.
const Port = 123

// Server is a stratum-2 pool-style NTP responder. The zero value is not
// usable; construct with NewServer.
type Server struct {
	Stratum uint8
	RefID   uint32

	// Served counts requests answered (for tests and campaign stats).
	Served uint64
}

// NewServer returns a responder with pool-typical parameters.
func NewServer(refID uint32) *Server {
	return &Server{Stratum: 2, RefID: refID}
}

// AttachSim binds the server to UDP port 123 on a simulated host. The
// response is sent not-ECT: NTP servers do not use ECN in normal
// operation, which is why the paper can only probe the forward path.
func (s *Server) AttachSim(h *netsim.Host) error {
	_, err := h.BindUDP(Port, func(host *netsim.Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte) {
		req, err := Parse(payload)
		if err != nil {
			return
		}
		now := TimestampFromSim(host.Sim().Now())
		resp, err := Respond(req, s.Stratum, s.RefID, now, now)
		if err != nil {
			return // non-client modes are ignored, as real servers do
		}
		s.Served++
		var scratch [PacketLen]byte // SendUDP copies into its pooled buffer
		// Fixed-size NTP responses cannot fail to serialize.
		_ = host.SendUDP(ip.Src, udp.DstPort, udp.SrcPort, 64, 0 /* not-ECT */, resp.Marshal(scratch[:0]))
	})
	return err
}
