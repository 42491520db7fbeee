package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"unsafe"
)

// stateHash digests everything a world's behaviour can depend on: it
// walks the object graph under the World reflectively — every field of
// Sim (its PRNG included), Network, Host, Router, Link, bottleneck, the
// AQM queues, tcpsim.Stack/Listener/Conn, ntp.Server,
// dnspool.Directory and the middlebox policies, unexported ones too —
// and hashes what it finds. Two worlds in the same state hash equal
// whatever their addresses: a pointer is recorded as the ordinal of its
// first visit, a func as its code pointer, a map in sorted key order, a
// slice by length and elements (never capacity).
//
// TestResetMatchesInstantiate requires World.Reset to reproduce a fresh
// Instantiate's hash, so a field someone adds to any of those types is
// covered the day it is added: if Reset forgets it, the hash differs.
// The only way to exempt a field is stateSkip below.
//
// The second result is the line-per-leaf dump the digest was computed
// over, for pointing at the first field that differs.
func (w *World) stateHash() (string, []string) {
	d := &stateDigest{seen: make(map[unsafe.Pointer]int)}
	d.walk("World", reflect.ValueOf(w))
	sum := sha256.Sum256([]byte(strings.Join(d.lines, "\n")))
	return hex.EncodeToString(sum[:]), d.lines
}

// stateSkip lists the fields stateHash does not descend into, as
// "package.Type.field". Each is one of two things, and nothing else
// belongs here:
//
//   - capacity — memory kept warm across a Reset on purpose, whose
//     contents no behaviour reads before overwriting them;
//   - the immutable blueprint — read-only lookups every world of a
//     blueprint shares by pointer.
var stateSkip = map[string]bool{
	// Capacity: the event slab and its free list. A slot is fully
	// rewritten by schedule before anything reads it; generations only
	// ever grow, so stale Timer handles stay stale.
	"netsim.Sim.slab": true,
	"netsim.Sim.free": true,
	// Capacity: a delivery lane's ring. Only the window [head,
	// head+n) is ever read, and a Reset empties it; the slots outside
	// hold stale deliveries until a push overwrites them.
	"netsim.lane.ring": true,
	// Capacity: the simulation's shell pool — recycled connection
	// shells, and the layer above's (httpmin's probe and serve shells)
	// beside them. Every stack on the simulator shares the pool, and
	// newConn (httpmin's Get and serve likewise) rewrites a shell whole
	// before anything reads it, so which shells wait there, and in what
	// order, is no behaviour's input. The Pool itself is walked: each
	// stack must point at its simulator's one pool.
	"tcpsim.Pool.free":     true,
	"tcpsim.Pool.UserData": true,
	// Capacity: ntp's probe shells on the host, core's on the vantage.
	"netsim.Host.UserData":      true,
	"topology.Vantage.UserData": true,
	// Capacity: the finished traceroute sessions every vantage's Mux
	// shares, and core's sweep shell (iteration state, row staging) on
	// the world. Run rewrites a session whole before anything reads it.
	// The Pool itself is walked: each Mux must point at its world's one
	// pool.
	"traceroute.Pool.free":    true,
	"topology.World.UserData": true,

	// Blueprint: routes and the address index (netsim.RouteTable), the
	// geo and ASN databases.
	"netsim.Network.nextHop": true,
	"netsim.Network.index":   true,
	"topology.World.Geo":     true,
	"topology.World.ASN":     true,
}

type stateDigest struct {
	lines []string
	seen  map[unsafe.Pointer]int
}

func (d *stateDigest) emit(path string, v any) {
	d.lines = append(d.lines, fmt.Sprintf("%s = %v", path, v))
}

func (d *stateDigest) walk(path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		d.emit(path, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.emit(path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.emit(path, v.Uint())
	case reflect.Float32, reflect.Float64:
		d.emit(path, v.Float())
	case reflect.String:
		d.emit(path, fmt.Sprintf("%q", v.String()))
	case reflect.Func:
		// The code pointer tells an NTP handler from a traceroute mux;
		// what a closure captured is reached through the world's own
		// fields or not at all.
		if v.IsNil() {
			d.emit(path, "nil")
		} else {
			d.emit(path, fmt.Sprintf("func@%#x", v.Pointer()))
		}
	case reflect.Pointer:
		if v.IsNil() {
			d.emit(path, "nil")
			return
		}
		p := v.UnsafePointer()
		if id, ok := d.seen[p]; ok {
			d.emit(path, fmt.Sprintf("ref#%d", id))
			return
		}
		d.seen[p] = len(d.seen)
		d.walk(path, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.emit(path, "nil")
			return
		}
		d.walk(path+".("+v.Elem().Type().String()+")", v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.String() + "." + t.Field(i).Name
			if stateSkip[name] {
				continue
			}
			d.walk(path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			d.emit(path+".len", v.Len())
		}
		if k := v.Type().Elem().Kind(); k <= reflect.Float64 && k != reflect.Invalid {
			// Scalars on one line: the PRNG's 607 words, the padding
			// around Sim's hot fields.
			d.emit(path, fmt.Sprint(v))
			return
		}
		for i := 0; i < v.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		d.emit(path+".len", v.Len())
		type entry struct {
			key string
			val reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, entry{fmt.Sprint(it.Key()), it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		for _, e := range entries {
			d.walk(path+"["+e.key+"]", e.val)
		}
	default:
		// A channel or unsafe pointer in simulation state would need a
		// rule of its own; refuse to guess.
		panic(fmt.Sprintf("stateHash: %s has unsupported kind %s", path, v.Kind()))
	}
}
