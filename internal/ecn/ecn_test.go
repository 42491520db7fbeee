package ecn

import (
	"testing"
	"testing/quick"
)

func TestFromTOS(t *testing.T) {
	cases := []struct {
		tos  uint8
		want Codepoint
	}{
		{0x00, NotECT},
		{0x01, ECT1},
		{0x02, ECT0},
		{0x03, CE},
		{0xFC, NotECT}, // DSCP EF, no ECN
		{0xFE, ECT0},
		{0xFF, CE},
		{0b10101001, ECT1},
	}
	for _, c := range cases {
		if got := FromTOS(c.tos); got != c.want {
			t.Errorf("FromTOS(%#02x) = %v, want %v", c.tos, got, c.want)
		}
	}
}

func TestSetTOSPreservesDSCP(t *testing.T) {
	for tos := 0; tos < 256; tos++ {
		for cp := Codepoint(0); cp <= CE; cp++ {
			got := SetTOS(uint8(tos), cp)
			if got&Mask != uint8(cp) {
				t.Fatalf("SetTOS(%#02x, %v): ECN bits = %#02b", tos, cp, got&Mask)
			}
			if got&^Mask != uint8(tos)&^Mask {
				t.Fatalf("SetTOS(%#02x, %v) changed DSCP: got %#02x", tos, cp, got)
			}
		}
	}
}

func TestSetTOSRoundTrip(t *testing.T) {
	f := func(tos uint8, raw uint8) bool {
		cp := Codepoint(raw & Mask)
		return FromTOS(SetTOS(tos, cp)) == cp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsECT(t *testing.T) {
	if NotECT.IsECT() {
		t.Error("not-ECT must not be ECT")
	}
	for _, c := range []Codepoint{ECT0, ECT1, CE} {
		if !c.IsECT() {
			t.Errorf("%v must be ECT", c)
		}
	}
}

func TestStringNames(t *testing.T) {
	want := map[Codepoint]string{
		NotECT: "not-ECT",
		ECT1:   "ECT(1)",
		ECT0:   "ECT(0)",
		CE:     "ECN-CE",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Codepoint(9).String() == "" {
		t.Error("out-of-range codepoint should still stringify")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sent, obs Codepoint
		want      Transition
	}{
		{ECT0, ECT0, Preserved},
		{NotECT, NotECT, Preserved},
		{CE, CE, Preserved},
		{ECT0, NotECT, Bleached},
		{ECT1, NotECT, Bleached},
		{CE, NotECT, Bleached}, // CE implies ECT; resetting it is bleaching
		{ECT0, CE, Marked},
		{ECT1, CE, Marked},
		{NotECT, ECT0, Mangled},
		{NotECT, CE, Mangled},
		{ECT0, ECT1, Mangled},
		{ECT1, ECT0, Mangled},
		{CE, ECT0, Mangled},
	}
	for _, c := range cases {
		if got := Classify(c.sent, c.obs); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.sent, c.obs, got, c.want)
		}
	}
}

// Property: Classify is Preserved iff sent == observed.
func TestClassifyPreservedIff(t *testing.T) {
	f := func(a, b uint8) bool {
		s, o := Codepoint(a&Mask), Codepoint(b&Mask)
		return (Classify(s, o) == Preserved) == (s == o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransitionString(t *testing.T) {
	for tr := Preserved; tr <= Mangled; tr++ {
		if tr.String() == "" {
			t.Errorf("transition %d has empty name", tr)
		}
	}
	if Transition(200).String() == "" {
		t.Error("unknown transition should still stringify")
	}
}
