package packet

import "sync"

// Buf is a pooled, reference-counted wire buffer: the unit of ownership
// for serialized datagrams on the simulator's hot path. Senders build
// into a Buf, the network layers hand the same Buf from node to node
// (links, AQM queues, routers), and whoever consumes the packet last
// calls Release, returning the backing array to a process-wide pool.
//
// Ownership rules (DESIGN.md §8):
//
//   - A Buf starts with one reference, owned by whoever obtained it
//     (NewBuf or a Build*Buf constructor).
//   - Passing a Buf to netsim.Link.Send or netsim.Node.Receive transfers
//     that reference; the caller must not touch the Buf afterwards.
//   - A holder that needs the bytes beyond the transfer calls Retain
//     first and Release when done.
//   - Release with the last reference recycles the buffer: the bytes may
//     be overwritten by an unrelated packet at any moment after. Code
//     that must keep bytes (capture taps, ICMP quotations) copies them.
//
// Buf is not safe for concurrent use: a packet lives inside exactly one
// shard's single-goroutine simulation. The pool itself is safe to share
// across shards (sync.Pool), which is what lets a campaign's shards
// recycle each other's buffers.
type Buf struct {
	b    []byte
	refs int32
}

// maxPooledCap bounds the backing arrays kept by the pool; oversized
// one-off buffers are left to the garbage collector.
const maxPooledCap = 64 * 1024

// defaultBufCap comfortably holds the simulator's common datagrams
// (NTP, DNS, HTTP segments ≤ MSS+headers) without regrowth.
const defaultBufCap = 2048

var bufPool = sync.Pool{
	New: func() any { return &Buf{b: make([]byte, 0, defaultBufCap)} },
}

// NewBuf returns an empty pooled buffer with one reference.
func NewBuf() *Buf {
	bf := bufPool.Get().(*Buf)
	bf.b = bf.b[:0]
	bf.refs = 1
	return bf
}

// Bytes returns the buffer's current contents. The slice is valid only
// while the caller holds a reference.
func (bf *Buf) Bytes() []byte { return bf.b }

// Len returns the number of bytes in the buffer.
func (bf *Buf) Len() int { return len(bf.b) }

// Write appends raw bytes, implementing io.Writer. It never fails.
func (bf *Buf) Write(p []byte) (int, error) {
	bf.b = append(bf.b, p...)
	return len(p), nil
}

// Retain adds a reference and returns bf for chaining.
func (bf *Buf) Retain() *Buf {
	bf.refs++
	return bf
}

// Release drops a reference; the last one returns the buffer to the
// pool. Releasing a nil Buf is a no-op. Over-releasing panics: it means
// two owners think they hold the last reference, which is exactly the
// aliasing bug the refcount exists to catch.
func (bf *Buf) Release() {
	if bf == nil {
		return
	}
	bf.refs--
	switch {
	case bf.refs > 0:
	case bf.refs == 0:
		if cap(bf.b) <= maxPooledCap {
			bufPool.Put(bf)
		}
	default:
		panic("packet: Buf over-released")
	}
}

// growSlice extends b by n uninitialized bytes. Unlike
// append(b, make([]byte, n)...) it never zeroes memory the caller is
// about to overwrite, which is what makes header serialization into a
// recycled buffer allocation-free.
func growSlice(b []byte, n int) []byte {
	if tot := len(b) + n; tot <= cap(b) {
		return b[:tot]
	}
	nb := make([]byte, len(b)+n, (len(b)+n)*2)
	copy(nb, b)
	return nb
}
