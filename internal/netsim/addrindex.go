package netsim

import (
	"math/bits"

	"repro/internal/packet"
)

// addrIndex is the Network's one destination lookup: an open-addressed,
// pointer-free hash table from an IPv4 address to the router it is
// reached through and, for a host address, the host that owns it. Every
// forwarding decision and PathRouters read it; nothing else maps
// addresses.
//
// Entries hold dense indices (router id, position in Network.hosts),
// never pointers, so the garbage collector does not scan the table and
// one frozen copy serves every Network replayed from the same
// construction sequence: ExportRoutes shares it inside the RouteTable
// and ImportRoutes adopts it in place of the private copy the replay
// built. A Network that mutates its graph afterwards (AddRouter,
// AddHost, Attach, ReplaceAttachment) first takes a private copy — see
// Network.ownIndex — so a shared table is never written.
//
// A host address shadows an equal router address; of two routers with
// one address the first registered wins.
type addrIndex struct {
	slots []addrSlot // length is zero or a power of two
	used  int
	shift uint // 32 - log2(len(slots)): hash bits kept
}

// addrSlot is one entry. Both indices are stored plus one so the zero
// slot means "empty": router is the attachment router of a host (0
// while the host is unattached) or the router whose own address this
// is; host is 0 for a router address.
type addrSlot struct {
	key    uint32
	router int32
	host   int32
}

const addrIndexMinSlots = 64

// lookup returns the entry for a, or the zero slot when a is unknown.
// The load factor stays at or below one half, so the probe always
// reaches an empty slot.
func (ix *addrIndex) lookup(a packet.Addr) addrSlot {
	if len(ix.slots) == 0 {
		return addrSlot{}
	}
	return *ix.probe(a.Uint32())
}

// probe returns the slot holding key, or the empty slot where it would
// be inserted. The multiplicative (Fibonacci) hash spreads the
// simulator's densely numbered 10.x.y.z addresses across the table.
func (ix *addrIndex) probe(key uint32) *addrSlot {
	mask := uint32(len(ix.slots) - 1)
	for i := (key * 2654435761) >> ix.shift; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.key == key || (s.router == 0 && s.host == 0) {
			return s
		}
	}
}

// slotFor returns the slot for a, growing the table as needed; the
// caller fills it in. A fresh slot reads router == 0 && host == 0.
func (ix *addrIndex) slotFor(a packet.Addr) *addrSlot {
	if 2*(ix.used+1) > len(ix.slots) {
		ix.grow(2 * (ix.used + 1))
	}
	key := a.Uint32()
	s := ix.probe(key)
	if s.router == 0 && s.host == 0 {
		s.key = key
		ix.used++
	}
	return s
}

// grow rehashes the table into n slots or more — a power of two, at
// least addrIndexMinSlots — unless it has that many already.
func (ix *addrIndex) grow(n int) {
	size := addrIndexMinSlots
	for size < n {
		size *= 2
	}
	if size <= len(ix.slots) {
		return
	}
	old := ix.slots
	ix.slots = make([]addrSlot, size)
	ix.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.router != 0 || s.host != 0 {
			*ix.probe(s.key) = s
		}
	}
}

// clone returns a private copy of a shared index.
func (ix *addrIndex) clone() *addrIndex {
	c := *ix
	c.slots = append([]addrSlot(nil), ix.slots...)
	return &c
}
