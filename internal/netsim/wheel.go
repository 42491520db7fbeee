package netsim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel: the Sim's default scheduler.
//
// The wheel trades the binary heap's O(log n) sift per operation for
// O(1) amortized insert and fire. Level l has 256 slots of 2^(8l) ns
// each; an event is filed at the lowest level whose current window
// contains its timestamp — equivalently, at the level of the highest
// byte in which the timestamp differs from the cursor. As the cursor
// reaches a higher-level slot, the slot cascades: its events re-file
// into finer levels, each event moving down at most wheelLevels-1 times
// over its whole life. Eight levels cover the full non-negative
// time.Duration range, so nothing ever falls off the end.
//
// Ordering is exactly the heap's (at, seq): a level-0 slot spans a
// single nanosecond, so everything in it shares one timestamp, and the
// drain orders those events by their FIFO sequence number before they
// fire. A slot chain is intrusive (event.next indexes the slab), the
// slot heads and occupancy bitmaps are fixed arrays, and the due buffer
// is reused, so steady-state scheduling allocates nothing.
//
// Two invariants keep lookups O(1) and exact:
//
//   - The cursor only advances inside wheelPop, to the timestamp of the
//     event being fired — never past the Sim clock. Peeking computes the
//     earliest pending time without moving anything, so RunUntil can
//     stop at a deadline and later insertions between the deadline and
//     the next event still file correctly.
//   - A level's own cursor slot is always empty: insertion files
//     same-window events at a lower level, and the cascade empties a
//     slot before the cursor enters it.
type timingWheel struct {
	// cur is the wheel's reference time: the timestamp of the last fired
	// event. All pending events are at cur or later.
	cur time.Duration
	// slot heads per (level, slot): slab index of an intrusive chain,
	// -1 when empty. Chains are unordered; drains sort by seq.
	slot [wheelLevels][wheelSlots]int32
	// occ mirrors slot occupancy, one bit per slot, for O(1) next-slot
	// scans.
	occ [wheelLevels][wheelSlots / 64]uint64
	// occupied counts a level's non-empty slots, so the advance loop
	// skips empty levels with one integer test instead of a bitmap scan
	// — the common case on sparse timelines, where consecutive events
	// sit whole windows apart. totalOcc sums the levels for an O(1)
	// wheel-empty test.
	occupied [wheelLevels]int32
	totalOcc int32
	// reg is the singleton register: when the wheel is otherwise empty,
	// a newly scheduled event parks here (slab index, -1 when vacant)
	// instead of filing into a slot. On the sparse stretches a campaign
	// spends most virtual time in — one pending timer, fired, replaced —
	// schedule and pop become a register store and load, with no slot,
	// bitmap or cascade work at all. A second insertion spills the
	// register into the slots first, so the register never reorders
	// anything: it is only ever the sole pending event.
	reg int32
	// due is the drained batch for the instant dueAt, ordered by seq;
	// duePos is the read cursor. The backing array is reused.
	due    []int32
	duePos int
	dueAt  time.Duration

	// Flight-recorder counters (plain uint64s — the wheel is owned by
	// one goroutine, and these must cost one increment, not an atomic):
	// cascades counts higher-level slots re-filed into finer levels,
	// registerHits the pops served straight from the singleton
	// register. Exposed via Sim.WheelStats; the campaign engine flushes
	// them into telemetry counters after each shard completes, so the
	// accounting never touches the event loop's control flow.
	cascades     uint64
	registerHits uint64
}

const (
	wheelLevelBits = 8
	wheelSlots     = 1 << wheelLevelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 8
)

func newTimingWheel() *timingWheel {
	w := &timingWheel{reg: -1}
	for l := range w.slot {
		for i := range w.slot[l] {
			w.slot[l][i] = -1
		}
	}
	return w
}

// reset rewinds an emptied wheel (Sim.Reset pops every pending event
// first) to newTimingWheel's state, keeping the due buffer's array.
func (w *timingWheel) reset() {
	w.cur = 0
	w.due = w.due[:0]
	w.duePos = 0
	w.dueAt = 0
	w.cascades = 0
	w.registerHits = 0
}

// levelSlot places timestamp t relative to the cursor: the level of the
// highest differing byte, and t's slot index at that level.
func (w *timingWheel) levelSlot(t time.Duration) (int, int) {
	diff := uint64(t) ^ uint64(w.cur)
	lvl := 0
	if diff != 0 {
		lvl = (bits.Len64(diff) - 1) >> 3
	}
	return lvl, int(uint64(t)>>(lvl*wheelLevelBits)) & wheelMask
}

// wheelInsert files event idx (with ev.at already set) into the wheel.
// schedule has clamped ev.at to the Sim clock, which is never behind the
// cursor, so t >= w.cur always holds. An event arriving at an otherwise
// empty wheel parks in the singleton register; a second arrival spills
// the register into the slots before filing, preserving exact order.
func (s *Sim) wheelInsert(idx int32, t time.Duration) {
	w := s.wheel
	if w.reg >= 0 {
		r := w.reg
		w.reg = -1
		s.wheelFile(r, s.slab[r].at)
	} else if w.totalOcc == 0 && w.duePos >= len(w.due) {
		w.reg = idx
		return
	}
	s.wheelFile(idx, t)
}

// wheelFile places an event into its slot chain. The cascade refiles
// through here directly: mid-cascade the slots may look empty, and a
// refile must never detour into the register.
func (s *Sim) wheelFile(idx int32, t time.Duration) {
	w := s.wheel
	lvl, slot := w.levelSlot(t)
	if w.slot[lvl][slot] < 0 {
		w.occupied[lvl]++
		w.totalOcc++
		w.occ[lvl][slot>>6] |= 1 << (slot & 63)
	}
	s.slab[idx].next = w.slot[lvl][slot]
	w.slot[lvl][slot] = idx
}

// scanOcc returns the first occupied slot index >= from at level lvl, or
// -1 when the rest of the level is empty.
func (w *timingWheel) scanOcc(lvl, from int) int {
	word := from >> 6
	b := w.occ[lvl][word] &^ ((1 << (from & 63)) - 1)
	for {
		if b != 0 {
			return word<<6 + bits.TrailingZeros64(b)
		}
		word++
		if word >= wheelSlots/64 {
			return -1
		}
		b = w.occ[lvl][word]
	}
}

// takeChain detaches and returns a slot's chain head.
func (w *timingWheel) takeChain(lvl, slot int) int32 {
	head := w.slot[lvl][slot]
	if head >= 0 {
		w.occupied[lvl]--
		w.totalOcc--
		w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
	}
	w.slot[lvl][slot] = -1
	return head
}

// wheelPop removes and returns the earliest pending event. Cancelled
// events are returned too (Step recycles them), exactly as the heap
// does.
func (s *Sim) wheelPop() (int32, time.Duration, bool) {
	w := s.wheel
	for {
		if w.duePos < len(w.due) {
			idx := w.due[w.duePos]
			w.duePos++
			return idx, w.dueAt, true
		}
		if w.reg >= 0 {
			// The register is the sole pending event by invariant.
			idx := w.reg
			w.reg = -1
			w.registerHits++
			at := s.slab[idx].at
			if at > w.cur {
				w.cur = at
			}
			return idx, at, true
		}
		if !s.wheelAdvance() {
			// The wheel is empty. Chasing cancelled events may have
			// carried the cursor past the Sim clock (their timestamps,
			// not the clock, drove the advance); rewind it so events
			// scheduled from here on — at or after the clock — file
			// ahead of the cursor, where scans look.
			w.cur = s.now
			return 0, 0, false
		}
	}
}

// wheelAdvance moves the cursor to the next occupied instant and fills
// the due buffer with that instant's events in seq order. It reports
// false when the wheel is empty.
func (s *Sim) wheelAdvance() bool {
	w := s.wheel
	for {
		// Level 0 first: an occupied slot at or after the cursor within
		// the current 256ns window is the exact next instant.
		if w.occupied[0] > 0 {
			if slot := w.scanOcc(0, int(uint64(w.cur)&wheelMask)); slot >= 0 {
				t := time.Duration(uint64(w.cur)&^uint64(wheelMask) | uint64(slot))
				w.cur = t
				s.wheelDrain(slot, t)
				return true
			}
		}
		// Level 0 exhausted for this window: cascade the next occupied
		// higher-level slot down and retry. Checking levels lowest-first
		// is correct because level l's remaining window precedes level
		// l+1's next slot in time; the occupancy counts skip empty
		// levels without touching their bitmaps.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if w.occupied[lvl] == 0 {
				continue
			}
			shift := uint(lvl * wheelLevelBits)
			from := int(uint64(w.cur)>>shift)&wheelMask + 1
			if from >= wheelSlots {
				continue
			}
			slot := w.scanOcc(lvl, from)
			if slot < 0 {
				continue
			}
			// Enter the slot: purge its dead entries, jump the cursor
			// straight to the earliest live timestamp inside (every
			// entry shares the slot's window, so all remain ahead of
			// the new cursor), and re-file the chain relative to it.
			// The jump puts the earliest event — and, on the sparse
			// timelines discrete-event simulations produce, usually the
			// whole chain — directly into level 0, one re-file instead
			// of one per intervening level.
			var live int32 = -1
			minAt := time.Duration(0)
			for idx := w.takeChain(lvl, slot); idx >= 0; {
				next := s.slab[idx].next
				if s.slab[idx].dead() {
					s.recycle(idx)
				} else {
					if live < 0 || s.slab[idx].at < minAt {
						minAt = s.slab[idx].at
					}
					s.slab[idx].next = live
					live = idx
				}
				idx = next
			}
			w.cascades++
			if live >= 0 {
				w.cur = minAt
				if s.slab[live].next < 0 {
					// Singleton hand-off: the chain's one live event is
					// the earliest pending (level 0 was exhausted and no
					// finer level holds a slot ahead of the cursor), so
					// re-filing it would put it alone in the level-0
					// slot at the new cursor, where the next pass would
					// find it, drain it and sort a batch of one. Hand
					// it to the due buffer directly — the same cursor,
					// the same batch, the same (time, seq) order.
					w.due = append(w.due[:0], live)
					w.duePos = 0
					w.dueAt = minAt
					return true
				}
				for idx := live; idx >= 0; {
					next := s.slab[idx].next
					s.wheelFile(idx, s.slab[idx].at)
					idx = next
				}
			}
			// An all-dead chain leaves nothing to file; rescan from here.
			cascaded = true
			break
		}
		if !cascaded {
			return false
		}
	}
}

// wheelDrain empties level-0 slot (whose events all share timestamp t)
// into the due buffer in seq order. Chains are near-sorted: a chain is
// reverse insertion order, so reversing it restores ascending seq except
// where a cascade interleaved older events; the insertion sort then does
// almost no work.
func (s *Sim) wheelDrain(slot int, t time.Duration) {
	w := s.wheel
	w.due = w.due[:0]
	w.duePos = 0
	w.dueAt = t
	for idx := w.takeChain(0, slot); idx >= 0; {
		next := s.slab[idx].next
		w.due = append(w.due, idx)
		idx = next
	}
	// Reverse to insertion order.
	for i, j := 0, len(w.due)-1; i < j; i, j = i+1, j-1 {
		w.due[i], w.due[j] = w.due[j], w.due[i]
	}
	// Insertion sort by seq for the cascade-interleaved stragglers.
	for i := 1; i < len(w.due); i++ {
		e := w.due[i]
		seq := s.slab[e].seq
		j := i - 1
		for j >= 0 && s.slab[w.due[j]].seq > seq {
			w.due[j+1] = w.due[j]
			j--
		}
		w.due[j+1] = e
	}
}

// wheelPeek returns the earliest live pending timestamp without moving
// the cursor, purging cancelled events it touches (mirroring the heap
// path's peekLive so RunUntil sees true deadlines).
func (s *Sim) wheelPeek() (time.Duration, bool) {
	w := s.wheel
	// Pending due entries are at dueAt; purge dead ones from the front.
	for w.duePos < len(w.due) {
		idx := w.due[w.duePos]
		if !s.slab[idx].dead() {
			return w.dueAt, true
		}
		s.recycle(idx)
		w.duePos++
	}
	if w.reg >= 0 {
		if !s.slab[w.reg].dead() {
			return s.slab[w.reg].at, true
		}
		s.recycle(w.reg)
		w.reg = -1
	}
	// Level 0: the first occupied slot's time is exact.
	from := int(uint64(w.cur) & wheelMask)
	for w.occupied[0] > 0 {
		slot := w.scanOcc(0, from)
		if slot < 0 {
			break
		}
		if w.purgeDead(s, 0, slot) {
			return time.Duration(uint64(w.cur)&^uint64(wheelMask) | uint64(slot)), true
		}
		from = slot + 1
		if from >= wheelSlots {
			break
		}
	}
	// Higher levels: the first occupied slot at the lowest such level
	// contains the earliest events; scan its chain for the live minimum.
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.occupied[lvl] == 0 {
			continue
		}
		shift := uint(lvl * wheelLevelBits)
		from := int(uint64(w.cur)>>shift)&wheelMask + 1
		for from < wheelSlots {
			slot := w.scanOcc(lvl, from)
			if slot < 0 {
				break
			}
			if !w.purgeDead(s, lvl, slot) {
				from = slot + 1
				continue
			}
			best := time.Duration(-1)
			for idx := w.slot[lvl][slot]; idx >= 0; idx = s.slab[idx].next {
				if at := s.slab[idx].at; best < 0 || at < best {
					best = at
				}
			}
			return best, true
		}
	}
	return 0, false
}

// purgeDead unlinks cancelled events from a slot chain, recycling them,
// and reports whether the slot still holds live events.
func (w *timingWheel) purgeDead(s *Sim, lvl, slot int) bool {
	idx := w.slot[lvl][slot]
	var prev int32 = -1
	for idx >= 0 {
		next := s.slab[idx].next
		if s.slab[idx].dead() {
			if prev < 0 {
				w.slot[lvl][slot] = next
			} else {
				s.slab[prev].next = next
			}
			s.recycle(idx)
		} else {
			prev = idx
		}
		idx = next
	}
	if w.slot[lvl][slot] < 0 {
		w.occupied[lvl]--
		w.totalOcc--
		w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
		return false
	}
	return true
}
