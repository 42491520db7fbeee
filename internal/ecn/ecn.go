// Package ecn defines the Explicit Congestion Notification codepoints
// carried in the two least-significant bits of the IPv4 traffic-class
// (TOS) byte, together with helpers for reading, writing and classifying
// them as RFC 3168 specifies.
//
// The package is the shared vocabulary of the whole repository: the packet
// codecs, the simulated routers and middleboxes, the traceroute analyser
// and the measurement engine all exchange Codepoint values rather than raw
// TOS bytes.
package ecn

import "fmt"

// Codepoint is a two-bit ECN field value as defined by RFC 3168 §5.
type Codepoint uint8

// The four ECN codepoints. ECT(0) and ECT(1) are equivalent signals of an
// ECN-capable transport; CE is set by a congested router on an ECT packet.
const (
	NotECT Codepoint = 0b00 // not ECN-capable transport
	ECT1   Codepoint = 0b01 // ECN-capable transport, codepoint 1
	ECT0   Codepoint = 0b10 // ECN-capable transport, codepoint 0
	CE     Codepoint = 0b11 // congestion experienced
)

// Mask covers the two ECN bits within a TOS/traffic-class byte.
const Mask = 0b11

// FromTOS extracts the ECN codepoint from an IPv4 TOS byte.
func FromTOS(tos uint8) Codepoint { return Codepoint(tos & Mask) }

// SetTOS returns tos with its ECN bits replaced by c, leaving the DSCP
// bits (the upper six) untouched.
func SetTOS(tos uint8, c Codepoint) uint8 {
	return (tos &^ Mask) | uint8(c&Mask)
}

// IsECT reports whether the codepoint declares an ECN-capable transport,
// i.e. it is ECT(0), ECT(1) or CE. RFC 3168 treats a CE mark as implying
// the packet was ECT when it entered the congested queue.
func (c Codepoint) IsECT() bool { return c != NotECT }

// String returns the conventional name used in the measurement literature.
func (c Codepoint) String() string {
	switch c {
	case NotECT:
		return "not-ECT"
	case ECT1:
		return "ECT(1)"
	case ECT0:
		return "ECT(0)"
	case CE:
		return "ECN-CE"
	default:
		return fmt.Sprintf("ECN(%#02b?)", uint8(c))
	}
}

// Transition classifies what happened to the ECN field of a packet between
// two observation points on a path. It is the unit of analysis for the
// paper's Section 4.2 (are ECN marks stripped from UDP?).
type Transition uint8

// Transition kinds, from benign to pathological.
const (
	// Preserved: the field arrived exactly as sent.
	Preserved Transition = iota
	// Bleached: an ECT mark was reset to not-ECT. This is the only
	// modification the paper observed in the wild.
	Bleached
	// Marked: an ECT codepoint was rewritten to CE — legitimate router
	// congestion signalling.
	Marked
	// Mangled: any other rewrite (not-ECT→ECT, CE→ECT, ECT(0)↔ECT(1), …),
	// indicating a broken middlebox.
	Mangled
)

// String names the transition for reports.
func (t Transition) String() string {
	switch t {
	case Preserved:
		return "preserved"
	case Bleached:
		return "bleached"
	case Marked:
		return "CE-marked"
	case Mangled:
		return "mangled"
	default:
		return fmt.Sprintf("transition(%d)", uint8(t))
	}
}

// Classify returns the Transition from the codepoint sent to the codepoint
// later observed.
func Classify(sent, observed Codepoint) Transition {
	switch {
	case sent == observed:
		return Preserved
	case sent.IsECT() && observed == NotECT:
		return Bleached
	case (sent == ECT0 || sent == ECT1) && observed == CE:
		return Marked
	default:
		return Mangled
	}
}
